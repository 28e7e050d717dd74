package analyze_test

import (
	"testing"
	"time"

	"repro/internal/analyze"
)

// The dogfood gate: the full fdlint suite must run clean over the
// whole module. This keeps contract regressions inside tier-1
// (`go test ./...`), not just the CI lint job — reverting, say, the
// sorted-key iteration in netsvc.Runs or bench.List fails this test.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	start := time.Now()
	findings, err := analyze.Run("", nil, "repro/...")
	if err != nil {
		t.Fatalf("running fdlint suite: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("fdlint: %d finding(s); the contracts above are documented in README.md \"Static analysis\"", len(findings))
	}
	// The perf contract behind the shared loader: the module is listed
	// and type-checked once, shared by all four analyzers, so a cold
	// full-module suite run stays interactive. 3s is ~2x the observed
	// cold time; a regression past it means per-analyzer reloading (or
	// an analyzer doing quadratic work) crept back in. The race
	// detector's instrumentation, not the loader, dominates a -race
	// run, so the budget gates only uninstrumented builds.
	if d := time.Since(start); d > 3*time.Second && !raceEnabled {
		t.Fatalf("full suite run took %v, budget 3s", d)
	}
}

// BenchmarkSuite times a full-module suite run on a warm loader — the
// repeated-Run path the Suite API exists for (the load is shared, so
// iterations measure analysis, not type-checking).
func BenchmarkSuite(b *testing.B) {
	s := analyze.NewSuite("", nil)
	if _, err := s.Run("repro/..."); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run("repro/..."); err != nil {
			b.Fatal(err)
		}
	}
}

// The suite is stable in size and order: the driver's -list output and
// CI caching key off this.
func TestAllAnalyzers(t *testing.T) {
	names := []string{}
	for _, a := range analyze.All() {
		names = append(names, a.Name)
	}
	want := []string{"noalloc", "orderedrange", "shardwrite", "streamtree"}
	if len(names) != len(want) {
		t.Fatalf("All() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("All() = %v, want %v", names, want)
		}
	}
}
