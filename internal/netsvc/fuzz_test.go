package netsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/netsim"
)

// FuzzHandleRun drives POST /runs with hostile bodies and query
// parameters. The handler must never panic, must answer 200, 400, 413
// or 429, and a 200 stream must end in a result or error line. The
// server caps runs at 2^14 tags and each request gets a 2 s deadline,
// so an input asking for a huge run ends in the error line instead of
// stalling the fuzzer.
func FuzzHandleRun(f *testing.F) {
	for _, name := range netsim.PresetNames() {
		f.Add([]byte(nil), name, "1", "", "")
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no example scenarios: %v", err)
	}
	for _, path := range files {
		body, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, "", "2", "", "")
	}
	lab, err := netsim.Preset("lab-bench")
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(nil), "", "", "sse", encodeResumeToken(resumeToken{V: resumeTokenVersion, Scenario: lab, Seed: 1, Round: 2}))
	f.Add([]byte(`{"tags": 4, "max_rounds": 3}`), "", "18446744073709551615", "sse", "")
	f.Add([]byte(`{"tags": -1}`), "nope", "x", "csv", "zzz")
	s := New(Config{MaxTags: 1 << 14, Workers: 1})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte, preset, seed, format, resume string) {
		q := url.Values{}
		for k, v := range map[string]string{"preset": preset, "seed": seed, "format": format, "resume": resume} {
			if v != "" {
				q.Set(k, v)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, "/runs?"+q.Encode(), bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%d body is not JSON: %q", rec.Code, rec.Body.Bytes())
			}
			return
		default:
			t.Fatalf("status %d, want 200, 400, 413 or 429: %s", rec.Code, rec.Body.Bytes())
		}
		// The last NDJSON line, or the data of the last SSE event.
		out := bytes.TrimRight(rec.Body.Bytes(), "\n")
		last := out[bytes.LastIndexByte(out, '\n')+1:]
		last = bytes.TrimPrefix(last, []byte("data: "))
		var line struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(last, &line); err != nil || (line.Type != "result" && line.Type != "error") {
			t.Fatalf("200 stream does not end in a result or error line: %q", last)
		}
	})
}
