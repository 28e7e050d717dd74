package netsvc

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/netsim"
)

// tokenScenarios returns every preset and every shipped example
// scenario in their pre-defaults form, as tokens embed them.
func tokenScenarios(t testing.TB) []netsim.Scenario {
	t.Helper()
	var out []netsim.Scenario
	for _, name := range netsim.PresetNames() {
		sc, err := netsim.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sc)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios: %v", err)
	}
	for _, f := range files {
		sc, err := netsim.LoadScenario(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sc)
	}
	return out
}

// TestTokenMinterMatchesMarshal: every minted token equals base64url
// of the marshaled resumeToken and decodes back to it. The seeds and
// rounds change the digit count, moving the per-round tail across all
// three base64 alignments of the cached head.
func TestTokenMinterMatchesMarshal(t *testing.T) {
	aligns := map[int]bool{}
	for _, sc := range tokenScenarios(t) {
		defaulted := sc
		defaulted.ApplyDefaults()
		for _, seed := range []uint64{0, 1, 9, 10, math.MaxUint64} {
			m := newTokenMinter(resumeToken{V: resumeTokenVersion, Scenario: sc, Seed: seed})
			for round := 1; round <= defaulted.MaxRounds+1; round++ {
				want := resumeToken{V: resumeTokenVersion, Scenario: sc, Seed: seed, Round: round}
				js, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				oracle := base64.RawURLEncoding.EncodeToString(js)
				got := m.appendToken([]byte("dst:"), round)
				if string(got) != "dst:"+oracle {
					t.Fatalf("%s seed %d round %d: minted %q, want %q", sc.Name, seed, round, got, "dst:"+oracle)
				}
				dec, err := decodeResumeToken(oracle)
				if err != nil {
					t.Fatalf("%s seed %d round %d: %v", sc.Name, seed, round, err)
				}
				if !reflect.DeepEqual(dec, want) {
					t.Fatalf("%s seed %d round %d: decoded %+v, want %+v", sc.Name, seed, round, dec, want)
				}
				aligns[(len(js)-len(strconv.Itoa(round))-1)%3] = true
			}
		}
	}
	if len(aligns) != 3 {
		t.Errorf("prefix alignments covered %v, want all of 0, 1, 2", aligns)
	}
}

// FuzzDecodeResumeToken: decoding never panics, and any token the
// decoder accepts re-mints to one that decodes to the same value.
func FuzzDecodeResumeToken(f *testing.F) {
	for i, sc := range tokenScenarios(f) {
		f.Add(encodeResumeToken(resumeToken{V: resumeTokenVersion, Scenario: sc, Seed: uint64(i), Round: i + 1}))
	}
	f.Add("")
	f.Add("zzz-not-a-token")
	f.Fuzz(func(t *testing.T, s string) {
		tok, err := decodeResumeToken(s)
		if err != nil {
			return
		}
		again, err := decodeResumeToken(encodeResumeToken(tok))
		if err != nil {
			t.Fatalf("re-minted token rejected: %v", err)
		}
		if !reflect.DeepEqual(again, tok) {
			t.Fatalf("re-minted token decodes to %+v, want %+v", again, tok)
		}
	})
}

// TestStreamAllocBudget bounds the heap allocated per streamed line:
// round lines must not re-marshal the scenario for their tokens.
func TestStreamAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool entries, so allocation is not a property of the code")
	}
	s := New(Config{Workers: 1})
	body := presetJSON(t, "fading-aisle")
	var buf bytes.Buffer
	if _, err := s.ReferenceStream(body, 1, &buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(buf.Bytes(), []byte("\n"))
	buf.Reset() // keep the grown buffer out of the measured run

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := s.ReferenceStream(body, 1, &buf); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perLine := float64(after.TotalAlloc-before.TotalAlloc) / float64(lines)
	t.Logf("%.0f B allocated per line over %d lines", perLine, lines)
	if perLine > 2048 {
		t.Errorf("%.0f B allocated per streamed line, budget 2048", perLine)
	}
}
