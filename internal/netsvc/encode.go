package netsvc

// Stream encoding: the single place run bytes are produced. Both the
// HTTP handler and the self-test's reference streams go through
// encodeStream, so "the served stream is byte-identical to the
// engine's" is true by construction and the load test only has to
// prove it survives concurrency.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/netsim"
)

// A round line is the engine snapshot plus a self-contained resume
// token that continues the stream from the NEXT round:
//
//	{"type":"round",<RoundSnapshot fields>,"resume":"<token>"}
//
// POST /runs?resume=<token> streams the remaining rounds
// byte-identically to this stream's tail. resume is always the last
// key: roundEncoder marshals a roundHead and splices the token in
// place of its closing brace.
type roundHead struct {
	Type string `json:"type"`
	*netsim.RoundSnapshot
}

// roundEncoder renders one stream's round lines into a buffer reused
// across rounds, minting each token from the stream's tokenMinter.
// encoding/json escapes no character of the base64url alphabet, so
// splicing the raw token yields the bytes json.Marshal would.
type roundEncoder struct {
	buf    bytes.Buffer
	enc    *json.Encoder
	head   roundHead
	minter *tokenMinter
}

func newRoundEncoder(orig netsim.Scenario, seed uint64) *roundEncoder {
	e := &roundEncoder{
		head:   roundHead{Type: "round"},
		minter: newTokenMinter(resumeToken{V: resumeTokenVersion, Scenario: orig, Seed: seed}),
	}
	e.enc = json.NewEncoder(&e.buf)
	return e
}

// encode returns snap's round line without framing. The bytes are
// valid until the next call.
func (e *roundEncoder) encode(snap *netsim.RoundSnapshot) ([]byte, error) {
	e.buf.Reset()
	e.head.RoundSnapshot = snap
	if err := e.enc.Encode(&e.head); err != nil {
		return nil, err
	}
	// Encode closes the object with "}\n"; reopen it for the token.
	// Past the cached head, the key, the token's ≤31-byte tail, `"}`
	// and the caller's framing fit in 64 bytes.
	e.buf.Truncate(e.buf.Len() - 2)
	e.buf.Grow(len(e.minter.head) + 64)
	b := append(e.buf.AvailableBuffer(), `,"resume":"`...)
	b = e.minter.appendToken(b, snap.Round+1)
	e.buf.Write(append(b, `"}`...))
	return e.buf.Bytes(), nil
}

// resultLine closes every completed stream with the run's aggregates —
// the fdnet -summary numbers in machine-readable form.
type resultLine struct {
	Type              string  `json:"type"`
	Name              string  `json:"name"`
	Seed              uint64  `json:"seed"`
	Rounds            int     `json:"rounds"`
	FramesOffered     int64   `json:"frames_offered"`
	FramesDelivered   int64   `json:"frames_delivered"`
	FramesDropped     int64   `json:"frames_dropped"`
	Delivery          float64 `json:"delivery"`
	Throughput        float64 `json:"throughput"`
	GoodputBytes      int64   `json:"goodput_bytes"`
	ElapsedBytes      int64   `json:"elapsed_bytes"`
	SimulatedS        float64 `json:"simulated_s"`
	CollisionFraction float64 `json:"collision_fraction"`
	Fairness          float64 `json:"fairness"`
	AliveFraction     float64 `json:"alive_fraction"`
	MeanRateMult      float64 `json:"mean_rate_mult,omitempty"`
	RateSwitches      int64   `json:"rate_switches,omitempty"`
}

// errorLine closes an aborted stream. Mid-run cancellation (server
// shutdown, run eviction) would otherwise truncate the stream silently
// — the status line is long gone, so a terminal typed line is the only
// way to tell a parser "this run did not finish" while keeping the
// stream pure NDJSON. Client disconnects get one too, best-effort: the
// write just fails with the connection already down.
type errorLine struct {
	Type  string `json:"type"`
	Error string `json:"error"`
	// Round is the last round the stream completed before the abort.
	Round int `json:"round"`
}

// lineWriter frames marshaled JSON values as NDJSON lines or SSE
// events and flushes after each one, so clients see rounds live.
type lineWriter struct {
	w     io.Writer
	flush func()
	sse   bool
}

func newLineWriter(w io.Writer, sse bool) *lineWriter {
	lw := &lineWriter{w: w, flush: func() {}, sse: sse}
	if f, ok := w.(http.Flusher); ok {
		lw.flush = f.Flush
	}
	return lw
}

// writeLine marshals and emits one value. event names the SSE event
// type and is ignored in NDJSON framing.
func (lw *lineWriter) writeLine(event string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return lw.writeRaw(event, b)
}

// writeRaw emits one marshaled JSON value, framing it into b's spare
// capacity (so the caller's buffer must not be in use elsewhere).
func (lw *lineWriter) writeRaw(event string, b []byte) error {
	if lw.sse {
		if _, err := lw.w.Write([]byte("event: " + event + "\ndata: ")); err != nil {
			return err
		}
		b = append(b, '\n', '\n')
	} else {
		b = append(b, '\n')
	}
	if _, err := lw.w.Write(b); err != nil {
		return err
	}
	lw.flush()
	return nil
}

// encodeStream runs the scenario and writes the full stream — one line
// per round, then the result line — to lw. sc must be the defaulted,
// validated scenario; orig is the client's pre-defaults declaration,
// embedded in resume tokens so replaying one walks the exact same
// defaulting path. progress (optional) observes each streamed round.
func encodeStream(ctx context.Context, sc, orig netsim.Scenario, seed uint64, opts netsim.StreamOptions, lw *lineWriter, progress func(round int)) (*netsim.NetResult, error) {
	rounds := newRoundEncoder(orig, seed)
	res, err := netsim.RunStreamOptions(ctx, sc, seed, opts, func(snap *netsim.RoundSnapshot) error {
		line, err := rounds.encode(snap)
		if err != nil {
			return err
		}
		if progress != nil {
			progress(snap.Round)
		}
		return lw.writeRaw("round", line)
	})
	if err != nil {
		return nil, err
	}
	return res, lw.writeLine("result", &resultLine{
		Type: "result", Name: res.Scenario.Name, Seed: res.Seed, Rounds: res.Rounds,
		FramesOffered: res.FramesOffered, FramesDelivered: res.FramesDelivered,
		FramesDropped: res.FramesDropped, Delivery: res.DeliveryRate(),
		Throughput: res.Throughput(), GoodputBytes: res.GoodputBytes,
		ElapsedBytes: res.ElapsedBytes, SimulatedS: res.SimulatedS,
		CollisionFraction: res.CollisionFraction(), Fairness: res.FairnessIndex(),
		AliveFraction: res.AliveFraction(), MeanRateMult: res.MeanRateMult(),
		RateSwitches: res.RateSwitches,
	})
}

// ReferenceStream renders the complete stream for (scenario JSON,
// seed) into w without HTTP — the byte-exact oracle the load self-test
// compares served streams against. scenarioJSON walks the same
// ParseScenario / ApplyDefaults / Validate path as a request body.
func (s *Server) ReferenceStream(scenarioJSON []byte, seed uint64, w io.Writer) (*netsim.NetResult, error) {
	orig, err := netsim.ParseScenario(scenarioJSON)
	if err != nil {
		return nil, err
	}
	sc := orig
	sc.ApplyDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return encodeStream(context.Background(), sc, orig, seed,
		netsim.StreamOptions{Workers: s.cfg.Workers}, newLineWriter(w, false), nil)
}
