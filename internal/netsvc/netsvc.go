// Package netsvc is the scenario-service layer behind cmd/fdnetd: a
// long-running HTTP surface over the netsim engine. It accepts scenario
// JSON (the same Scenario schema and Validate path as cmd/fdnet), runs
// one engine per request on the sharded worker-pool infrastructure, and
// streams per-round statistics as NDJSON (or server-sent events) —
// delivery, throughput, per-reader saturation, rate-histogram deltas —
// the live management-surface shape of ndn-dpdk's service daemon, where
// runs are first-class managed objects with live stats queries.
//
// Contracts:
//
//   - Streams are pure NDJSON. Every byte written to a run response is
//     a marshaled JSON line; diagnostics flow through the request-scoped
//     server logger, never the stream (the fdnet run-header bug class).
//   - Streams are deterministic: one (scenario, seed) produces
//     byte-identical output on every request, at any engine worker
//     count. CI cmp's two runs of the fading-dock example.
//   - Admission is bounded: at most Config.MaxConcurrent engines run at
//     once; excess requests get 429 with a Retry-After header, and
//     scenarios above Config.MaxTags, and request bodies above 1 MiB,
//     get 413 before any engine spins up.
//   - Every round line carries a self-contained resume token; replaying
//     it (?resume=) streams the remaining rounds byte-identically to the
//     uninterrupted stream's tail (see netsim.StreamOptions.StartRound).
package netsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/netsim"
)

// Config dimensions a Server. Zero fields take the documented defaults.
type Config struct {
	// MaxConcurrent bounds the engines running at once (default 4).
	// Requests beyond it receive 429 + Retry-After.
	MaxConcurrent int
	// MaxTags caps the per-request tag count after scenario defaults
	// (default 1<<20, the million preset); larger requests get 413.
	MaxTags int
	// Workers is the engine worker count per run (<= 0: one per CPU).
	// Concurrency across requests comes from MaxConcurrent; per-run
	// sharding is the server operator's knob, not the client's.
	Workers int
	// RetryAfterS is the Retry-After hint on 429 responses in seconds
	// (default 1).
	RetryAfterS int
	// Log receives request-scoped diagnostics (accept/finish/reject
	// lines). nil discards them. Nothing ever logs into a stream.
	Log *log.Logger
}

func (c *Config) applyDefaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxTags <= 0 {
		c.MaxTags = 1 << 20
	}
	if c.RetryAfterS <= 0 {
		c.RetryAfterS = 1
	}
	if c.Log == nil {
		c.Log = log.New(io.Discard, "", 0)
	}
}

// RunStatus is one live run's entry in the GET /runs listing.
type RunStatus struct {
	// ID is the server-assigned run identifier (monotonic per process).
	ID uint64 `json:"id"`
	// Name and Seed echo the running scenario.
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
	// Round is the last round streamed so far (live progress).
	Round int `json:"round"`
	// MaxRounds bounds the run; StartRound is non-zero for resumed runs.
	MaxRounds  int `json:"max_rounds"`
	StartRound int `json:"start_round,omitempty"`
	// RunningS is the wall-clock age of the run in seconds.
	RunningS float64 `json:"running_s"`
}

// runInfo is the server-side state of one live run.
type runInfo struct {
	id         uint64
	name       string
	seed       uint64
	startRound int
	maxRounds  int
	started    time.Time
	round      int64 // accessed under Server.mu
	cancel     context.CancelFunc
}

// Server is the scenario service: bounded concurrent engines, live run
// registry, streaming handlers. Create with New; serve via Handler.
type Server struct {
	cfg Config

	mu       sync.Mutex
	active   int
	nextID   uint64
	accepted uint64
	rejected uint64
	runs     map[uint64]*runInfo
}

// New builds a Server from the config (zero fields take defaults).
func New(cfg Config) *Server {
	cfg.applyDefaults()
	return &Server{cfg: cfg, runs: make(map[uint64]*runInfo)}
}

// Handler returns the service's HTTP routes:
//
//	POST /runs     run a scenario (JSON body, ?preset=, or ?resume=token)
//	GET  /runs     list live runs with per-round progress
//	GET  /healthz  liveness + admission state
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /runs", s.handleRun)
	mux.HandleFunc("GET /runs", s.handleList)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// ActiveRuns reports the engines currently running — the admission
// counter. Tests use it to prove disconnected clients release their
// engine (no goroutine or slot leaks).
func (s *Server) ActiveRuns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// CancelRuns cancels every live run's context. The daemon calls it on
// SIGTERM so in-flight streams end promptly and graceful shutdown can
// complete.
func (s *Server) CancelRuns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ri := range s.runs {
		ri.cancel()
	}
}

// Runs snapshots the live-run registry, sorted by run ID.
func (s *Server) Runs() []RunStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Harvest and sort the map keys before building the listing: run
	// IDs are unique, so the sorted keys induce a deterministic order
	// no matter how the map iterates (TestRunsListingSortedAndStable
	// holds this).
	ids := make([]uint64, 0, len(s.runs))
	for id := range s.runs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]RunStatus, 0, len(ids))
	now := time.Now()
	for _, id := range ids {
		ri := s.runs[id]
		out = append(out, RunStatus{
			ID: ri.id, Name: ri.name, Seed: ri.seed,
			Round: int(ri.round), MaxRounds: ri.maxRounds, StartRound: ri.startRound,
			RunningS: now.Sub(ri.started).Seconds(),
		})
	}
	return out
}

// admit claims an engine slot, or reports rejection.
func (s *Server) admit() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active >= s.cfg.MaxConcurrent {
		s.rejected++
		return false
	}
	s.active++
	return true
}

// register adds a run to the registry after admission.
func (s *Server) register(ri *runInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	s.accepted++
	ri.id = s.nextID
	s.runs[ri.id] = ri
}

// finish releases the admission slot and drops the registry entry.
func (s *Server) finish(ri *runInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	delete(s.runs, ri.id)
}

func (s *Server) progress(ri *runInfo, round int) {
	s.mu.Lock()
	ri.round = int64(round)
	s.mu.Unlock()
}

// jsonError writes a one-line JSON error body with the given status.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	w.Write(append(b, '\n'))
}

// handleHealthz reports liveness and admission state.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	body := map[string]any{
		"status":         "ok",
		"active_runs":    s.active,
		"max_concurrent": s.cfg.MaxConcurrent,
		"runs_accepted":  s.accepted,
		"runs_rejected":  s.rejected,
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	b, _ := json.Marshal(body)
	w.Write(append(b, '\n'))
}

// handleList serves the live-run registry.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	b, _ := json.Marshal(s.Runs())
	w.Write(append(b, '\n'))
}

// maxScenarioBody bounds a request body; a scenario JSON is small, and
// unknown fields are rejected anyway. Larger bodies get 413.
const maxScenarioBody = 1 << 20

// handleRun admits, validates and streams one scenario run.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()

	// Resolve the scenario: a resume token, a named preset, or body
	// JSON — exactly one.
	var (
		orig       netsim.Scenario // pre-defaults, as the client declared it
		seed       uint64          = 1
		startRound int
	)
	switch {
	case q.Get("resume") != "":
		tok, err := decodeResumeToken(q.Get("resume"))
		if err != nil {
			jsonError(w, http.StatusBadRequest, "bad resume token: %v", err)
			return
		}
		orig, seed, startRound = tok.Scenario, tok.Seed, tok.Round
	case q.Get("preset") != "":
		var err error
		orig, err = netsim.Preset(q.Get("preset"))
		if err != nil {
			jsonError(w, http.StatusBadRequest, "%v", err)
			return
		}
	default:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxScenarioBody))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				jsonError(w, http.StatusRequestEntityTooLarge,
					"request body exceeds %d bytes", maxScenarioBody)
				return
			}
			jsonError(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
		if len(body) == 0 {
			jsonError(w, http.StatusBadRequest, "empty request: POST scenario JSON, or use ?preset= / ?resume=")
			return
		}
		orig, err = netsim.ParseScenario(body)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if v := q.Get("seed"); v != "" && q.Get("resume") == "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "bad seed %q: %v", v, err)
			return
		}
		seed = n
	}

	// Validate on the same path as fdnet: defaults then Validate, with
	// the Validate error text in the 400 body.
	sc := orig
	sc.ApplyDefaults()
	if err := sc.Validate(); err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if sc.Tags > s.cfg.MaxTags {
		jsonError(w, http.StatusRequestEntityTooLarge,
			"scenario asks for %d tags; this server caps requests at %d", sc.Tags, s.cfg.MaxTags)
		return
	}

	sse := q.Get("format") == "sse" || r.Header.Get("Accept") == "text/event-stream"

	// Admission: bounded concurrent engines.
	if !s.admit() {
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterS))
		jsonError(w, http.StatusTooManyRequests,
			"server is running its maximum of %d concurrent scenario runs; retry after %ds",
			s.cfg.MaxConcurrent, s.cfg.RetryAfterS)
		return
	}

	ctx, cancel := context.WithCancel(r.Context())
	ri := &runInfo{
		name: sc.Name, seed: seed, startRound: startRound,
		maxRounds: sc.MaxRounds, started: time.Now(), cancel: cancel,
	}
	s.register(ri)
	defer func() {
		cancel()
		s.finish(ri)
	}()
	s.cfg.Log.Printf("run %d: accepted %q seed=%d tags=%d readers=%d rounds<=%d start_round=%d workers=%d sse=%v",
		ri.id, sc.Name, seed, sc.Tags, sc.Readers.Count, sc.MaxRounds, startRound, netsim.ResolveWorkers(s.cfg.Workers), sse)

	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")

	lw := newLineWriter(w, sse)
	res, err := encodeStream(ctx, sc, orig, seed, netsim.StreamOptions{
		Workers: s.cfg.Workers, StartRound: startRound,
	}, lw, func(round int) { s.progress(ri, round) })
	if err != nil {
		// The stream has (in general) started: the status line is gone,
		// so the error is a log line, not a response. Cancellation and
		// client disconnects land here by design. A terminal error line
		// keeps the stream parseable end to end for clients still
		// listening (server-side cancellation); when the client itself
		// disconnected the write fails harmlessly.
		_ = lw.writeLine("error", &errorLine{Type: "error", Error: err.Error(), Round: int(ri.round)})
		s.cfg.Log.Printf("run %d: aborted at round %d: %v", ri.id, ri.round, err)
		return
	}
	s.cfg.Log.Printf("run %d: done: %d rounds, delivered %d/%d, %.1f ms",
		ri.id, res.Rounds, res.FramesDelivered, res.FramesOffered,
		float64(time.Since(ri.started).Microseconds())/1e3)
}
