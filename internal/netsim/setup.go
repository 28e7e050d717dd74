package netsim

// Engine set-up as one pool phase. Setting up a run is a handful of
// jobs that share nothing: the placement draws (placeSrc), the waypoint
// walk's first targets (mobilitySrc), parking the root stream's two
// words per tag, and allocating the per-tag columns, whose zeroing is
// most of the set-up time at a million tags. phaseSetup runs them as
// its shards, so with two or more workers they overlap; with one they
// run inline, in task order.
//
// Each serial stream is drawn by exactly one task, start to finish in
// tag order, so its draw sequence is the serial engine's whatever
// worker claims the task. Each task allocates and fills only the
// engine fields it owns, and nothing reads them before the barrier.
// The trigonometry of the drawn polar points is not serial: the init
// phase converts them in place, one tag shard at a time.

import "repro/internal/simrand"

// The set-up tasks, in claim order: longest first, so the pool packs
// them (the phase table's setup row shows the per-worker busy time).
const (
	// taskStats allocates the TagStats rows, the largest column.
	taskStats = iota
	// taskWalk draws the waypoint walk's first targets.
	taskWalk
	// taskPlace draws the tag positions.
	taskPlace
	// taskFade builds the rate-adaptation state.
	taskFade
	// taskColumns allocates the remaining per-tag columns and the
	// slot scratch.
	taskColumns
	// taskRoot parks two root words per tag in its loss stream, the
	// exact root sequence of the serial engine; initShard expands
	// them.
	taskRoot
	// taskFeatures builds the congestion, policy and fault state.
	taskFeatures
	numSetupTasks
)

// setupTask runs set-up task k. The tasks run in parallel, and each
// writes only the engine fields its own case names.
func (e *engine) setupTask(k int) {
	sc := &e.sc
	t := &e.tags
	n := sc.Tags
	src := e.setupSrc[k]
	switch k {
	case taskStats:
		t.stats = make([]TagStats, n)
	case taskWalk:
		if sc.Mobility.enabled() {
			e.walk = newWaypointWalk(n, sc.RadiusM, sc.Mobility.StepM, src)
		}
	case taskPlace:
		t.pos = make([]Position, n)
		drawPlacement(t.pos, sc.Topology, sc.RadiusM, sc.Clusters, sc.ClusterSpreadM, e.readers, src)
	case taskFade:
		if sc.RateAdapt.enabled() {
			// The fading streams are hashed off the run seed, not split
			// from the tree: enabling adaptation must not shift the
			// streams the static engine draws. The loss draws themselves
			// ride each tag's existing loss stream.
			e.fade = newFadeState(sc.RateAdapt, n, e.seed)
		}
	case taskColumns:
		e.allocColumns()
	case taskRoot:
		t.loss = parkRoot(n, src)
	case taskFeatures:
		R := len(e.readers)
		if sc.Congestion.enabled() {
			e.cong = newCongState(sc.Congestion, n, sc.QueueCap)
		}
		if sc.Readers.Policy != PolicyAloha {
			e.sched = newSchedState(sc.Readers, n)
		}
		if sc.Faults.enabled() {
			e.flt = newFaultState(sc.Faults, n, R)
		}
	}
}

// allocColumns allocates taskColumns' share: every per-tag column but
// the ones with a task of their own, and the slot-draw scratch.
func (e *engine) allocColumns() {
	sc := &e.sc
	n, R := sc.Tags, len(e.readers)
	t := &e.tags
	t.reader = make([]int32, n)
	t.harvestW = make([]float64, n)
	t.queue = make([]int32, n)
	t.energyJ = make([]float64, n)
	t.outageT = make([]float64, n)
	t.alive = make([]bool, n)
	t.txCount = make([]int32, n)
	t.txDt = make([]float64, n)
	t.proto = make([]simrand.Source, n)
	e.tagsByReader = make([]int32, n)
	e.slotChoice = make([]int32, n)
	e.tagBits = make([]uint64, (n+63)/64)
	if e.tdm {
		e.gains = make([]float64, n*R)
	}
	if sc.Readers.Policy == PolicyAloha {
		e.slotOnce = make([]uint64, R*e.slotWords)
		e.slotMany = make([]uint64, R*e.slotWords)
	}
}

// parkRoot draws two root words per tag, in tag order, into a fresh
// loss column.
func parkRoot(n int, root *simrand.Source) []simrand.Source {
	loss := make([]simrand.Source, n)
	for i := range loss {
		loss[i].SetState(root.Uint64(), root.Uint64())
	}
	return loss
}
