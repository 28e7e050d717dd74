// Package netsim is the shardwrite corpus: a miniature of the
// engine's struct-of-arrays round state exercising the index
// provenance rules — range-parameter indices, arithmetic and
// partition-column indirection, element-pointer narrowing, local struct
// copies, cross-index and whole-column violations, and the shard-ok
// escape hatch.
package netsim

type worker struct {
	slots []int32
}

type config struct {
	drawW float64
	buf   []int64
}

type engine struct {
	alive       []bool
	stats       []int64
	cellAcc     []int64
	activeCells []int32
	cursor      int
	total       int64
	cfg         config
}

// goodShard writes its granted range [lo, hi): every index is the
// loop variable rooted at the range parameters.
//
//fdlint:parallel
func (e *engine) goodShard(lo, hi int) {
	for i := lo; i < hi; i++ {
		e.alive[i] = true
		e.stats[i]++
	}
}

// goodIndirect derives indices through arithmetic, conversions, and a
// partition column loaded at the granted cell index.
//
//fdlint:parallel
func (e *engine) goodIndirect(ci int) {
	acc := &e.cellAcc[ci]
	*acc = 0
	r := int(e.activeCells[ci])
	base := r * 4
	for k := 0; k < 4; k++ {
		e.stats[base+k] = 0
	}
}

// goodScratch writes only worker-local scratch handed in as a
// parameter: exempt regardless of index provenance.
//
//fdlint:parallel
func (e *engine) goodScratch(w *worker, lo, hi int) {
	count := w.slots[:8]
	for s := 0; s < 8; s++ {
		count[s] = 0
	}
	copy(w.slots, e.activeCells)
}

// goodSlicedBulk bulk-copies into the shard's own sub-range.
//
//fdlint:parallel
func (e *engine) goodSlicedBulk(lo, hi int) {
	copy(e.stats[lo:hi], e.cellAcc)
}

// localCopy steps a shard-local copy of shared configuration: a local
// struct is its own storage, so writing its fields races with nothing,
// while writing through a reference the copy carries, or through a
// pointer to the original, still does.
//
//fdlint:parallel
func (e *engine) localCopy(lo, hi int) {
	c := e.cfg
	for i := lo; i < hi; i++ {
		c.drawW = float64(i)
		c.buf[0] = 1 // want `index not derived from the shard's own parameters`
	}
	p := &e.cfg
	p.drawW = 0 // want `writes engine-shared state without an element index`
}

// crossIndex writes shared columns at a field-loaded cursor and a
// literal slot: neither derives from the shard's grant.
//
//fdlint:parallel
func (e *engine) crossIndex(lo, hi int) {
	for i := lo; i < hi; i++ {
		e.stats[e.cursor] = 1 // want `index not derived from the shard's own parameters`
		e.stats[0] = 1        // want `index not derived from the shard's own parameters`
		e.stats[i] = 1
	}
	e.stats[e.cursor]++ // want `index not derived from the shard's own parameters`
}

// aliasShared writes shared storage through a local alias: the alias
// chase keeps the column shared, so the index rules still apply.
//
//fdlint:parallel
func (e *engine) aliasShared(lo, hi int) {
	t := e.stats
	for i := lo; i < hi; i++ {
		t[i] = 1
		t[e.cursor] = 1 // want `index not derived from the shard's own parameters`
	}
}

// wholeColumn replaces a shared column, bulk-copies over one, and
// bumps a shared scalar: all race across shards.
//
//fdlint:parallel
func (e *engine) wholeColumn(lo, hi int) {
	e.alive = nil            // want `writes engine-shared state without an element index`
	copy(e.stats, e.cellAcc) // want `applies copy to an engine-shared column`
	e.total++                // want `writes engine-shared state without an element index`
	_ = lo
	_ = hi
}

// externalPartition documents an ownership argument the lattice cannot
// see; a reasoned shard-ok suppresses, a bare one is itself flagged
// and suppresses nothing.
//
//fdlint:parallel
func (e *engine) externalPartition(lo, hi int) {
	e.stats[e.cursor] = 1 //fdlint:shard-ok cursor is pinned per shard before dispatch
	e.stats[e.cursor] = 2 //fdlint:shard-ok // want `shard-ok suppression requires a reason` `index not derived from the shard's own parameters`
	_ = lo
	_ = hi
}

// prep takes no integer grant: there is no shard parameter to derive
// from, so the write rules skip it (its draws are still checked).
//
//fdlint:parallel
func (e *engine) prep(w *worker) {
	e.total = 0
	_ = w
}
