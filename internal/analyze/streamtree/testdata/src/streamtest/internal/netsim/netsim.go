// Package netsim is the streamtree corpus: a miniature of the engine's
// seed split tree exercising every provenance class — seed-rooted
// construction, Mix64 hashing, DerivesSeed helper facts, literal
// seeds, wall-clock seeds, unproven seeds, and loop element aliasing.
package netsim

import (
	"time"

	"repro/internal/simrand"
)

type engine struct {
	seed    uint64
	src     *simrand.Source
	tagSrc  []*simrand.Source
	tagVal  []simrand.Source
	columns [][]float64
}

// laneStream hashes the run seed with a lane index: every return is
// seed-derived, so the analyzer exports a DerivesSeed fact for it.
func laneStream(seed, lane uint64) uint64 {
	return simrand.Mix64(seed ^ (lane*0x9e3779b9 + 1))
}

// chained derives through another fact-carrying helper, proving the
// fact fixpoint handles helper-calls-helper regardless of order.
func chained(seed uint64) uint64 {
	return laneStream(seed, 3)
}

// good builds sources only from the run seed and blessed derivations.
func good(seed uint64) *simrand.Source {
	root := simrand.New(seed)
	a := simrand.New(simrand.Mix64(seed ^ 0xfdb5))
	b := simrand.New(laneStream(seed, 7))
	c := simrand.New(chained(seed))
	_, _, _ = a, b, c
	return root
}

// goodField roots construction and reseeding in a seed-named field.
func (e *engine) goodField(i int) {
	e.src = simrand.New(e.seed)
	e.src.Reseed(laneStream(e.seed, uint64(i)))
}

// literalLocal launders a literal through a seed-named local: the
// definition, not the name, decides.
func literalLocal() *simrand.Source {
	seed := uint64(42)
	return simrand.New(seed) // want `seeded from a literal`
}

// literalDirect seeds straight from a constant.
func literalDirect() *simrand.Source {
	return simrand.New(1) // want `seeded from a literal`
}

// wallClock seeds from the wall clock: tainted, not merely unproven.
func wallClock() *simrand.Source {
	return simrand.New(uint64(time.Now().UnixNano())) // want `seeded from ambient state` `engine package uses time.Now`
}

// unproven seeds from a parameter with no seed pedigree.
func unproven(n uint64) *simrand.Source {
	return simrand.New(n) // want `not provably derived`
}

// factNoLaunder calls a DerivesSeed helper with literal arguments: the
// fact transfers derivation, it does not create it.
func factNoLaunder() *simrand.Source {
	return simrand.New(laneStream(3, 4)) // want `not provably derived`
}

// reseedLiteral re-seeds an existing source from a constant.
func (e *engine) reseedLiteral() {
	e.src.Reseed(7) // want `seeded from a literal`
}

// aliasStore shares one loop-invariant source across every element:
// two tags would draw from the same stream position.
func (e *engine) aliasStore(n int) {
	shared := simrand.New(e.seed)
	for i := 0; i < n; i++ {
		e.tagSrc[i] = shared // want `aliased|loop-invariant \*simrand.Source stored into per-element storage`
	}
}

// splitStore mints a fresh source per element: clean.
func (e *engine) splitStore(n int) {
	root := simrand.New(e.seed)
	for i := 0; i < n; i++ {
		e.tagSrc[i] = root.Split()
	}
}

// perIterStore builds the source inside the loop: clean.
func (e *engine) perIterStore(n int) {
	for i := 0; i < n; i++ {
		s := simrand.New(laneStream(e.seed, uint64(i)))
		e.tagSrc[i] = s
	}
}

// valueAliasStore copies one loop-invariant source value into every
// element: each copy starts at the same position, so every tag would
// draw the same sequence.
func (e *engine) valueAliasStore(n int) {
	base := *simrand.New(e.seed)
	for i := 0; i < n; i++ {
		e.tagVal[i] = base // want `loop-invariant simrand.Source value copied into per-element storage`
	}
}

// derefAliasStore copies through a loop-invariant pointer: the same
// defect as valueAliasStore.
func (e *engine) derefAliasStore(n int) {
	for i := 0; i < n; i++ {
		e.tagVal[i] = *e.src // want `loop-invariant simrand.Source value copied`
	}
}

// valueSplitStore seeds every element in place from a fresh split of
// the root: clean.
func (e *engine) valueSplitStore(n int) {
	root := simrand.New(e.seed)
	for i := 0; i < n; i++ {
		e.tagVal[i].SetState(root.Uint64(), root.Uint64())
		e.tagVal[i+n] = *root.Split()
	}
}

// scratchSuppressed is the blessed escape hatch: a zero-seeded scratch
// source that is state-restored before every use.
func scratchSuppressed() *simrand.Source {
	return simrand.New(0) //fdlint:stream-ok reseeded via SetState before every draw
}

// bareSuppression omits the reason: the suppression itself is flagged
// and does not suppress.
func bareSuppression() *simrand.Source {
	return simrand.New(0) //fdlint:stream-ok // want `seeded from a literal` `stream-ok suppression requires a reason`
}
