package shardwrite_test

import (
	"testing"

	"repro/internal/analyze/analysistest"
	"repro/internal/analyze/shardwrite"
)

// The corpus proves the analyzer accepts range-parameter indices
// (directly, through arithmetic and partition-column indirection,
// and through element-pointer narrowing), exempts worker scratch and
// shard-owned sub-ranges, flags cross-index and whole-column writes,
// and honours only reasoned shard-ok suppressions.
func TestShardwrite(t *testing.T) {
	analysistest.Run(t, "testdata", shardwrite.Analyzer, "shardwtest/internal/netsim")
}

// The stream-discipline corpus proves the analyzer confines goroutine
// creation to the //fdlint:workerpool function, requires channel-free
// bodies and shard-owned simrand sources (parameter-rooted, aliased,
// or an element at a derived index) in //fdlint:parallel functions,
// and keeps //fdlint:serial streams out of struct fields and parallel
// calls.
func TestStreamDiscipline(t *testing.T) {
	analysistest.Run(t, "testdata", shardwrite.Analyzer, "shardtest/internal/netsim")
}

func TestGoverns(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/netsim":     true,
		"shardtest/internal/netsim": true,
		"internal/netsim":           true,
		"repro/internal/netsvc":     false,
		"repro/internal/mac":        false,
	} {
		if got := shardwrite.Governs(path); got != want {
			t.Errorf("Governs(%q) = %v, want %v", path, got, want)
		}
	}
}
