package netsvc

// Stream goldens: the sha256 of the served bytes themselves. The
// reference-vs-served and resume tests compare the service with
// itself, so an encoder change applied to every path at once would
// still pass them; these digests pin the NDJSON and SSE wire bytes.
// An encoder change must leave every one of them unchanged.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/netsim"
)

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// streamGoldens pins ReferenceStream at seed 1 for every preset but
// million, whose stream is too large for the unit tests.
var streamGoldens = map[string]string{
	"congested-dock": "af3a4ed3566059bacc87f19e3539b9c16f0458d98ec4473f4e514b136ba8afa7",
	"fading-aisle":   "af41e944b87c88d6e3426920f831b2671228305e96bd9d037b747b7659aca31b",
	"lab-bench":      "7a29534d0282296afce2d36da917414b0ad6c69dbf74e367dd95c3d86d0701f8",
	"mall-cells":     "8f972f062a0347ccea404af0a365d97cfa7b5e8606c6a2f7c56afb0bc475f49a",
	"mobile-fleet":   "2be427f5802931e062e4218eacaf9c47935e088929a899d29bec77c7bace20b3",
	"outage-retail":  "d30b7a714dbe6df31c2fd27662620a5bfde35abc682b0674e8c11b4c6dc3731c",
	"retail-shelf":   "4d5f42f59bbcba72f44e5922923f91525828875a5754d261b95c6040c770c121",
	"sparse-field":   "768f966581c91f4b07f244077796afe8255a715d2b6dc59ec52b693298150c0c",
	"warehouse":      "532700185cf581210a61cfbd586676d433b1fc28e60dec017ed80a105286d60c",
}

const (
	// sseGolden pins lab-bench at seed 1 served over HTTP as SSE.
	sseGolden = "21c6fce6ac7af6075636acfd3c56652a2d8914a26c2aa284a0c82f4756def695"
	// resumeGolden pins the tail served for the resume token on the
	// middle round line of warehouse at seed 1.
	resumeGolden = "c4b1757741b8159f842ce623d19e50b31672c960ea64dccd45071311de8e104a"
)

func postBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d err %v", url, resp.StatusCode, err)
	}
	return b
}

func TestStreamGoldens(t *testing.T) {
	s := New(Config{})
	for _, name := range netsim.PresetNames() {
		if name == "million" {
			continue
		}
		var buf bytes.Buffer
		if _, err := s.ReferenceStream(presetJSON(t, name), 1, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := digest(buf.Bytes()), streamGoldens[name]; got != want {
			t.Errorf("%s: stream digest %s, want %s", name, got, want)
		}
	}
}

func TestSSEGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if got := digest(postBody(t, ts.URL+"/runs?preset=lab-bench&seed=1&format=sse")); got != sseGolden {
		t.Errorf("SSE stream digest %s, want %s", got, sseGolden)
	}
}

func TestResumeGolden(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var ref bytes.Buffer
	if _, err := s.ReferenceStream(presetJSON(t, "warehouse"), 1, &ref); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(ref.Bytes(), []byte("\n")), []byte("\n"))
	var mid struct {
		Resume string `json:"resume"`
	}
	if err := json.Unmarshal(lines[len(lines)/2-1], &mid); err != nil || mid.Resume == "" {
		t.Fatalf("no resume token mid-stream: %v", err)
	}
	if got := digest(postBody(t, ts.URL+"/runs?resume="+mid.Resume)); got != resumeGolden {
		t.Errorf("resumed tail digest %s, want %s", got, resumeGolden)
	}
}
