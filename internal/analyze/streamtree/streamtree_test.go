package streamtree_test

import (
	"testing"

	"repro/internal/analyze/analysistest"
	"repro/internal/analyze/streamtree"
)

// The corpus proves the analyzer accepts seed-rooted construction
// (directly, via Mix64, and via DerivesSeed helper facts), flags
// literal, wall-clock, and unproven seeds, flags loop element
// aliasing, and honours only reasoned stream-ok suppressions.
func TestStreamtree(t *testing.T) {
	analysistest.Run(t, "testdata", streamtree.Analyzer, "streamtest/internal/netsim")
}

// The ambient-state corpora prove the analyzer fires on ambient
// randomness, clocks and environment reads in engine-suffixed
// packages, accepts a seeded simrand.Source threaded through an
// interface, and stays silent in non-engine packages.
func TestAmbientBans(t *testing.T) {
	analysistest.Run(t, "testdata", streamtree.Analyzer, "puretest/internal/mac")
	analysistest.Run(t, "testdata", streamtree.Analyzer, "puretest/internal/netsim")
	analysistest.Run(t, "testdata", streamtree.Analyzer, "puretest/clock")
}

func TestGoverns(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/mac":     true,
		"repro/internal/netsim":  true,
		"puretest/internal/mac":  true,
		"internal/mac":           true,
		"repro/internal/netsvc":  false,
		"repro/internal/simrand": false,
		"repro/internal/trace":   false,
	} {
		if got := streamtree.Governs(path); got != want {
			t.Errorf("Governs(%q) = %v, want %v", path, got, want)
		}
	}
}
