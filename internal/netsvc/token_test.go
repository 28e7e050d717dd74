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

// TestStreamAllocBudget bounds the heap a stream allocates: per line,
// so round lines cannot re-marshal the scenario for their tokens, and
// per run, for the engine and encoder set-up. The per-line cost is the
// difference between two stream lengths of the same scenario over the
// difference in their line counts, so set-up does not count against
// it; each length takes the least of three runs, so a GC cycle landing
// inside one run does not either.
func TestStreamAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool entries, so allocation is not a property of the code")
	}
	const perLineBudget, setupBudget = 2048, 40 << 10
	s := New(Config{Workers: 1})
	sc, err := netsim.Preset("fading-aisle")
	if err != nil {
		t.Fatal(err)
	}
	// Enough frames that the closed loop never drains: every run lasts
	// MaxRounds.
	sc.FramesPerTag = 1 << 12
	measure := func(rounds int) (alloc uint64, lines int) {
		sc.MaxRounds = rounds
		body, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := s.ReferenceStream(body, 1, &buf); err != nil {
			t.Fatal(err)
		}
		lines = bytes.Count(buf.Bytes(), []byte("\n"))
		alloc = math.MaxUint64
		for range 3 {
			buf.Reset() // keep the grown buffer out of the measured run
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := s.ReferenceStream(body, 1, &buf); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		return alloc, lines
	}
	shortB, shortL := measure(16)
	longB, longL := measure(80)
	// Allocation noise can make the longer stream's least run the
	// smaller one; a negative difference is no per-line cost.
	perLine := max(0, (float64(longB)-float64(shortB))/float64(longL-shortL))
	setup := float64(shortB) - perLine*float64(shortL)
	t.Logf("%.0f B allocated per line (%d and %d lines), %.0f B per run", perLine, shortL, longL, setup)
	if perLine > perLineBudget {
		t.Errorf("%.0f B allocated per streamed line, budget %d", perLine, perLineBudget)
	}
	if setup > setupBudget {
		t.Errorf("%.0f B allocated per stream outside its lines, budget %d", setup, setupBudget)
	}
}
