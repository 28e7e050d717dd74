// Package analyze assembles the fdlint analyzer suite: the static
// checks that enforce this repo's determinism and zero-alloc contracts
// at the source level, complementing the runtime gates (byte-identical
// determinism tests, AllocsPerRun tests, the CI perf gate). Each
// contract has one analyzer.
//
//   - noalloc: functions annotated //fdlint:noalloc do not allocate.
//     Heap escapes come from the compiler (`go build -gcflags=-m`, run
//     once per annotated package; an inlined callee's escape is
//     reported at its call line); AST rules cover what -m does not
//     report: go, defer and append past reused capacity.
//   - orderedrange: map iteration order never reaches an output sink
//     unsorted.
//   - shardwrite: //fdlint:parallel shard bodies draw only their own
//     RNG streams and write struct-of-arrays columns only at indices
//     derived from the shard's own range parameters; in netsim,
//     goroutines exist only in the worker pool, workers are
//     channel-free, and serial-only streams stay serial.
//   - streamtree: engine packages draw randomness only from seeded
//     simrand sources — no math/rand, wall clocks, or environment —
//     and every *simrand.Source is provably seeded from the run seed
//     via the blessed split/hash constructors, with no loop element
//     stream aliasing.
package analyze

import (
	"repro/internal/analyze/analysis"
	"repro/internal/analyze/noalloc"
	"repro/internal/analyze/orderedrange"
	"repro/internal/analyze/shardwrite"
	"repro/internal/analyze/streamtree"
)

// All returns the full fdlint suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		noalloc.Analyzer,
		orderedrange.Analyzer,
		shardwrite.Analyzer,
		streamtree.Analyzer,
	}
}
