package netsvc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func presetJSON(t *testing.T, name string) []byte {
	t.Helper()
	sc, err := netsim.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMalformedScenarioRejected: bad requests get a 400 whose JSON body
// carries the engine's own Validate/parse error text.
func TestMalformedScenarioRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, body, wantErr string
	}{
		{"not json", "{nope", "scenario"},
		{"unknown field", `{"tags": 4, "bogus_knob": 1}`, "bogus_knob"},
		{"bad topology", `{"tags": 4, "topology": "dodecahedron"}`, "topology"},
		{"bad rho", `{"tags": 4, "rho": 2.5}`, "rho"},
		{"empty body", "", "empty request"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("400 body is not JSON: %s", body)
			}
			if !strings.Contains(e.Error, tc.wantErr) {
				t.Errorf("error %q does not mention %q", e.Error, tc.wantErr)
			}
		})
	}
}

// TestTagCapRejected: a scenario above MaxTags, and a body above the
// 1 MiB cap, get 413 before any engine spins up. The oversized body is
// a valid scenario padded with whitespace, so a silently truncated
// read would parse and stream instead.
func TestTagCapRejected(t *testing.T) {
	for _, tc := range []struct {
		name, body string
	}{
		{"tag cap", `{"tags": 101}`},
		{"body cap", `{"tags": 8}` + strings.Repeat(" ", 2<<20)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{MaxTags: 100})
			resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413", resp.StatusCode)
			}
			var e map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
				t.Errorf("413 body is not a JSON error: %v %v", e, err)
			}
			if n := s.ActiveRuns(); n != 0 {
				t.Errorf("ActiveRuns = %d after a 413", n)
			}
		})
	}
}

// holdRun starts a run that cannot finish on its own (huge open-loop
// round budget, body never read) and returns its response plus a stop
// function. One line is read to prove the run was admitted.
func holdRun(t *testing.T, ts *httptest.Server) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/runs",
		strings.NewReader(`{"name": "hold", "tags": 8, "offered_load": 0.5, "max_rounds": 1000000}`))
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		cancel()
		t.Fatalf("hold run got status %d", resp.StatusCode)
	}
	if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
		cancel()
		t.Fatalf("hold run: no first line: %v", err)
	}
	return func() {
		resp.Body.Close()
		cancel()
	}
}

func waitDrained(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.ActiveRuns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d runs still active after 10s", s.ActiveRuns())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAdmissionControl: with the single engine slot held, the next
// request is rejected 429 + Retry-After; after disconnect the slot
// frees and requests are admitted again.
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, RetryAfterS: 7})
	stop := holdRun(t, ts)

	resp, err := http.Post(ts.URL+"/runs?preset=lab-bench", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want 7", got)
	}

	stop()
	waitDrained(t, s)

	resp, err = http.Post(ts.URL+"/runs?preset=lab-bench", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after the held run disconnected: status %d, want 200", resp.StatusCode)
	}
}

// TestDisconnectCancelsEngine: closing the client connection mid-stream
// tears the engine down — ActiveRuns returns to zero, the counter
// standing in for a goroutine-leak detector.
func TestDisconnectCancelsEngine(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2})
	stop := holdRun(t, ts)
	if n := s.ActiveRuns(); n != 1 {
		t.Fatalf("ActiveRuns = %d with a held stream, want 1", n)
	}
	if runs := s.Runs(); len(runs) != 1 || runs[0].Name != "hold" {
		t.Fatalf("Runs() = %+v, want the single held run", runs)
	}
	stop()
	waitDrained(t, s)
	if runs := s.Runs(); len(runs) != 0 {
		t.Fatalf("Runs() = %+v after disconnect, want empty", runs)
	}
}

// TestStreamDeterministicAndPureNDJSON is the S6 regression: under a
// sharded engine (workers 8) the response must parse as pure NDJSON —
// every line a JSON object, no run-header or diagnostic interleaving —
// and two identical requests must produce byte-identical streams.
func TestStreamDeterministicAndPureNDJSON(t *testing.T) {
	// A logger that writes eagerly, so any mis-routed diagnostic would
	// race into the response if it shared the stream path.
	var logBuf bytes.Buffer
	_, ts := newTestServer(t, Config{
		Workers: 8,
		Log:     log.New(&logBuf, "fdnetd: ", 0),
	})
	body := presetJSON(t, "fading-aisle")
	get := func() []byte {
		resp, err := http.Post(ts.URL+"/runs?seed=42", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("Content-Type = %q", ct)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one, two := get(), get()
	if !bytes.Equal(one, two) {
		t.Error("two runs of the same (scenario, seed) produced different streams")
	}

	lines := bytes.Split(bytes.TrimSuffix(one, []byte("\n")), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("stream has %d lines", len(lines))
	}
	for i, line := range lines {
		if !json.Valid(line) {
			t.Fatalf("line %d is not JSON (stream corrupted): %q", i+1, line)
		}
		var typed struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &typed); err != nil || (typed.Type != "round" && typed.Type != "result") {
			t.Fatalf("line %d has type %q, want round|result", i+1, typed.Type)
		}
	}
	if bytes.Contains(one, []byte("fdnet")) {
		t.Error("stream contains diagnostic text")
	}
	if !bytes.Contains(logBuf.Bytes(), []byte("accepted")) {
		t.Error("request diagnostics did not reach the server logger")
	}
}

// TestResumeRoundTrip: a resume token lifted off a served stream
// replays the remaining rounds byte-identically over HTTP.
func TestResumeRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/runs?preset=warehouse&seed=9", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("full run: status %d err %v", resp.StatusCode, err)
	}
	lines := bytes.Split(bytes.TrimSuffix(full, []byte("\n")), []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("run too short: %d lines", len(lines))
	}
	cut := len(lines) / 2
	var mid struct {
		Resume string `json:"resume"`
	}
	if err := json.Unmarshal(lines[cut-1], &mid); err != nil || mid.Resume == "" {
		t.Fatalf("no resume token on line %d: %v", cut, err)
	}

	resp, err = http.Post(ts.URL+"/runs?resume="+mid.Resume, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: status %d err %v", resp.StatusCode, err)
	}
	want := append(bytes.Join(lines[cut:], []byte("\n")), '\n')
	if !bytes.Equal(tail, want) {
		t.Fatalf("resumed stream differs from the uninterrupted tail:\ngot  %d bytes\nwant %d bytes", len(tail), len(want))
	}

	// A garbage token is a 400, not a crash.
	resp, err = http.Post(ts.URL+"/runs?resume=zzz-not-a-token", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage token: status %d, want 400", resp.StatusCode)
	}
}

// TestSSEFraming: ?format=sse switches the stream to server-sent
// events with the same JSON payloads.
func TestSSEFraming(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/runs?preset=lab-bench&format=sse", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte("event: round\ndata: {")) {
		t.Error("missing round events")
	}
	if !bytes.Contains(body, []byte("event: result\ndata: {")) {
		t.Error("missing result event")
	}
	for _, ev := range bytes.Split(bytes.TrimSuffix(body, []byte("\n\n")), []byte("\n\n")) {
		data := ev[bytes.Index(ev, []byte("\ndata: "))+len("\ndata: "):]
		if !json.Valid(data) {
			t.Fatalf("SSE data is not JSON: %q", data)
		}
	}
}

// TestHealthz: liveness endpoint reports admission state and counters.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 3})
	// One completed run so the counters are non-trivial.
	resp, err := http.Post(ts.URL+"/runs?preset=lab-bench", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status        string `json:"status"`
		ActiveRuns    int    `json:"active_runs"`
		MaxConcurrent int    `json:"max_concurrent"`
		RunsAccepted  uint64 `json:"runs_accepted"`
		RunsRejected  uint64 `json:"runs_rejected"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.MaxConcurrent != 3 || h.ActiveRuns != 0 || h.RunsAccepted != 1 {
		t.Errorf("healthz = %+v", h)
	}
}

// TestStreamMatchesReference: a served stream equals the reference
// oracle's bytes for the same (scenario, seed) — the single-encoding-
// path contract the load self-test scales up.
func TestStreamMatchesReference(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := presetJSON(t, "retail-shelf")
	var ref bytes.Buffer
	if _, err := s.ReferenceStream(body, 3, &ref); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/runs?seed=3", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d err %v", resp.StatusCode, err)
	}
	if !bytes.Equal(got, ref.Bytes()) {
		t.Fatalf("served stream differs from reference (%d vs %d bytes)", len(got), ref.Len())
	}
}

// TestSelfTestSmoke drives the full load harness at reduced scale so
// `go test` exercises the same code path CI runs at 120+ runs.
func TestSelfTestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load harness")
	}
	var out bytes.Buffer
	err := SelfTest(SelfTestConfig{Runs: 24, MaxConcurrent: 3, Seeds: 2}, &out)
	if err != nil {
		t.Fatalf("SelfTest: %v\n%s", err, out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("PASS")) {
		t.Errorf("no PASS line in output:\n%s", out.String())
	}
}

// TestCancelRuns: the daemon's SIGTERM path ends live streams promptly.
func TestCancelRuns(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2})
	stop := holdRun(t, ts)
	defer stop()
	s.CancelRuns()
	waitDrained(t, s)
}

// TestCancelledStreamEndsWithErrorLine: server-side cancellation must
// not truncate the NDJSON mid-stream — a client still listening sees a
// terminal {"type":"error",...} line, every line (including the last)
// stays valid JSON, and no result line is forged for the unfinished
// run.
func TestCancelledStreamEndsWithErrorLine(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2})
	resp, err := http.Post(ts.URL+"/runs",
		"application/json",
		strings.NewReader(`{"name": "cancelme", "tags": 8, "offered_load": 0.5, "max_rounds": 1000000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	// Let the stream prove it is live before pulling the plug.
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("no first line: %v", err)
	}
	if !json.Valid(bytes.TrimSuffix(first, []byte("\n"))) {
		t.Fatalf("first line is not JSON: %q", first)
	}
	s.CancelRuns()

	// Drain to EOF: the handler must close the stream with the terminal
	// error line rather than just dropping the connection mid-round.
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("reading the cancelled stream: %v", err)
	}
	waitDrained(t, s)

	all := append(first, rest...)
	lines := bytes.Split(bytes.TrimSuffix(all, []byte("\n")), []byte("\n"))
	sawResult := false
	for i, line := range lines {
		if !json.Valid(line) {
			t.Fatalf("line %d of the cancelled stream is not JSON (truncation): %q", i+1, line)
		}
		var typed struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &typed); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if typed.Type == "result" {
			sawResult = true
		}
		if (typed.Type == "error") != (i == len(lines)-1) {
			t.Fatalf("line %d/%d has type %q; the error line must be exactly the last line",
				i+1, len(lines), typed.Type)
		}
	}
	if sawResult {
		t.Fatal("cancelled run forged a result line")
	}
	var el struct {
		Type  string `json:"type"`
		Error string `json:"error"`
		Round int    `json:"round"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &el); err != nil {
		t.Fatal(err)
	}
	if el.Error == "" {
		t.Fatal("terminal error line carries no error text")
	}
	if el.Round < 1 {
		t.Fatalf("terminal error line reports round %d; the stream had completed at least one", el.Round)
	}
}

// TestSeedParsing: bad ?seed= is a 400, and the seed round-trips into
// the result line.
func TestSeedParsing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/runs?preset=lab-bench&seed=banana", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("seed=banana: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/runs?preset=lab-bench&seed=1234", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte(fmt.Sprintf(`"seed":%d`, 1234))) {
		t.Error("result line does not echo the requested seed")
	}
}

// TestBadResumeTokenRejected: a resume token is decoded as strictly as
// a scenario body — unknown fields at any level and trailing data get
// the same 400 a POSTed body would, as do bad versions and rounds.
func TestBadResumeTokenRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(token string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/runs?resume="+token, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	tok := func(js string) string { return base64.RawURLEncoding.EncodeToString([]byte(js)) }

	// The hand-built tokens below differ from this valid one in one way.
	if code, body := post(tok(`{"v":1,"scenario":{"tags":8},"seed":1,"round":2}`)); code != http.StatusOK {
		t.Fatalf("valid hand-built token: status %d; body %s", code, body)
	}
	for _, tc := range []struct {
		name, token, wantErr string
	}{
		{"unknown scenario field", tok(`{"v":1,"scenario":{"tags":8,"bogus_field":3},"seed":1,"round":2}`), "bogus_field"},
		{"unknown nested field", tok(`{"v":1,"scenario":{"tags":8,"readers":{"count":1,"bogus_knob":1}},"seed":1,"round":2}`), "bogus_knob"},
		{"unknown top-level key", tok(`{"v":1,"scenario":{"tags":8},"seed":1,"round":2,"extra":true}`), "extra"},
		{"trailing object", tok(`{"v":1,"scenario":{"tags":8},"seed":1,"round":2}{}`), "trailing"},
		{"trailing garbage", tok(`{"v":1,"scenario":{"tags":8},"seed":1,"round":2} x`), "trailing"},
		{"wrong version", tok(`{"v":2,"scenario":{"tags":8},"seed":1,"round":2}`), "version"},
		{"round zero", tok(`{"v":1,"scenario":{"tags":8},"seed":1,"round":0}`), "round"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(tc.token)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", code, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal([]byte(body), &e); err != nil {
				t.Fatalf("400 body is not JSON: %s", body)
			}
			if !strings.Contains(e.Error, tc.wantErr) {
				t.Errorf("error %q does not mention %q", e.Error, tc.wantErr)
			}
		})
	}
}
