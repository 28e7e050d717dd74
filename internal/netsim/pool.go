package netsim

// Worker pool for the sharded round loop. The pool is persistent for
// the whole run: workers are goroutines parked on a channel, a phase
// dispatch hands each of them one token, and every worker (including
// the dispatching main goroutine, which doubles as workers[0]) claims
// shards off a shared atomic counter until the phase is exhausted.
// Steady-state rounds therefore start no goroutines and allocate
// nothing — the only per-dispatch costs are channel sends and the
// WaitGroup barrier.
//
// Determinism does not depend on which worker claims which shard: a
// shard's computation reads only state owned by the shard (its reader
// cell's tags, or its tag range) plus per-tag stream words stored
// inline, and writes only shard-owned state and integer sums in its
// worker's own accumulator slots. Cross-shard reductions happen after
// the barrier, in cell order, on the main goroutine.

import (
	"sync"
	"sync/atomic"
)

// phaseKind names the parallel phases of the round loop.
type phaseKind uint8

const (
	// phaseGrants executes policy-scheduled windows (grant selection is
	// a per-cell top-K); shards are active reader cells.
	phaseGrants phaseKind = iota
	// phaseServe serves the ALOHA windows drawSlots classified: every
	// singleton winner's exchange and every colliding tag's charge;
	// shards are tag ranges.
	phaseServe
	// phaseInit expands per-tag setup from the serial root draws;
	// shards are tag ranges.
	phaseInit
	// phaseDerive recomputes link qualities; shards are tag ranges.
	phaseDerive
	// phaseSettle settles energy budgets; shards are tag ranges.
	phaseSettle
	// phaseDrain finalises per-tag stats; shards are tag ranges.
	phaseDrain
	// phaseCong runs the per-round congestion pass (RTO expiry, retx
	// re-admission, pacing eligibility); shards are tag ranges.
	phaseCong
	// phaseSetup runs newEngine's independent set-up tasks: the
	// placement and waypoint draws, parking the root stream, and the
	// large column allocations; shards are tasks (setupTask).
	phaseSetup
	// phaseContend marks the round's ALOHA contenders ahead of the
	// serial slot draws; shards are tag ranges.
	phaseContend
	// phaseWalk moves the waypoint walkers that have not arrived;
	// shards are tag ranges.
	phaseWalk
	numParallelPhases
)

// deriveBlockGains is the number of tag-reader gains deriveShard
// stages per block: enough independent Log/Exp chains to keep the CPU
// busy, few enough that the block's scratch stays in L1.
const deriveBlockGains = 512

// tagShardLen is the tag-range shard size for the per-tag phases:
// large enough that the atomic claim is noise, small enough that a
// million tags spread over every worker.
const tagShardLen = 4096

// cellAcc accumulates one reader cell's window outcome: the slot
// classes and their byte-time (drawSlots or runPolicyCell), plus the
// served exchanges' sums (reduceWindows). Padded to a cache line so
// adjacent cells on different workers don't false-share.
type cellAcc struct {
	windowBytes    int64
	idleSlots      int64
	singletonSlots int64
	collisionSlots int64
	collisionBytes int64
	goodputBytes   int64
	_              [2]int64
}

// serveAcc is one worker's integer sums over the exchanges it served
// for one cell in the current round: the byte-time they elapsed, the
// payload they delivered and the frames delivered. reduceWindows folds
// every worker's row into the cell in cell order and zeroes it. Padded
// to a cache line so the ends of two workers' rows don't false-share.
type serveAcc struct {
	elapsed, goodput, delivered int64
	_                           [5]int64
}

// netWorker is one worker's scratch: the serve lanes and the per-cell
// sums of the exchanges it serves. Everything here is allocated once at
// pool start.
type netWorker struct {
	// busy is this worker's row of the phase accumulator's busy times
	// (nil unless the run is phased).
	busy *[numPhases]int64
	// lanes hold the singleton exchanges in flight (serve.go).
	lanes laneSet
	// serve[ci] sums the exchanges this worker served for active cell
	// ci this round (finishFrame).
	serve []serveAcc
	// Grant-list scratch for runPolicyCell (nil under PolicyAloha):
	// the top-ContentionWindow contenders by policy metric.
	grantIdx    []int32
	grantMetric []float64
	// Derive-phase scratch for one block of deriveBlock tags
	// (deriveShard): tag-major reader distances and gains, then each
	// tag's best gain, noise floor and SNR.
	deriveBlock          int
	dist, gain           []float64
	bestG, noiseW, snrDB []float64
	// Drain-phase sums over the tags this worker finalised: the frame
	// counters, the adaptation counters and each reader's stranded
	// backlog (drainShard).
	offered, delivered, dropped int64
	switches, chunks, lag       int64
	backlog                     []int64
}

type pool struct {
	e       *engine
	workers []*netWorker
	workCh  chan phaseKind
	wg      sync.WaitGroup
	// shardNext is the shared shard-claim counter for the current
	// phase; reset by dispatch before any worker can run.
	shardNext atomic.Int64
	// anyQueued is OR'd by settle shards: true when some live tag still
	// holds a frame (drives closed-loop termination). Order-free.
	anyQueued atomic.Bool
}

// start builds the worker scratch and parks workers-1 helper
// goroutines on the dispatch channel (the main goroutine is
// workers[0]). It runs before the set-up phase, so it sizes everything
// from the scenario; newEngine primes the lanes' protocol scratch after
// set-up, so first use never allocates — an allocation on first use
// would land on whichever worker happened to claim the first frame,
// making allocation counts scheduling-dependent.
//
//fdlint:workerpool
func (p *pool) start(e *engine, workers int) {
	p.e = e
	p.workers = make([]*netWorker, workers)
	cw := e.sc.ContentionWindow
	R := len(e.readers)
	// Validate caps the reader count at 64, so a block holds at least
	// 8 tags; a small run's scratch shrinks to its tag count.
	block := max(1, deriveBlockGains/R)
	nb := min(e.sc.Tags, block)
	for i := range p.workers {
		w := &netWorker{
			serve: make([]serveAcc, R),

			deriveBlock: block,
			dist:        make([]float64, nb*R),
			gain:        make([]float64, nb*R),
			bestG:       make([]float64, nb),
			noiseW:      make([]float64, nb),
			snrDB:       make([]float64, nb),

			backlog: make([]int64, R),
		}
		if e.acc != nil {
			w.busy = &e.acc.busy[i]
		}
		if e.sc.Readers.Policy != PolicyAloha {
			w.grantIdx = make([]int32, 0, cw)
			w.grantMetric = make([]float64, 0, cw)
		}
		p.workers[i] = w
	}
	helpers := workers - 1
	p.workCh = make(chan phaseKind, helpers)
	for i := 1; i < workers; i++ {
		go func(w *netWorker) {
			for ph := range p.workCh {
				p.runPhase(w, ph)
				p.wg.Done()
			}
		}(p.workers[i])
	}
}

// stop releases the helper goroutines.
func (p *pool) stop() { close(p.workCh) }

// shardCount returns the number of shards the phase divides into.
func (p *pool) shardCount(ph phaseKind) int {
	switch ph {
	case phaseGrants:
		return len(p.e.activeCells)
	case phaseSetup:
		return numSetupTasks
	}
	return (p.e.tags.len() + tagShardLen - 1) / tagShardLen
}

// dispatch runs one phase to completion across the pool and returns
// after the barrier. With one worker (or one shard) it degenerates to
// an inline call with no synchronisation at all.
func (p *pool) dispatch(ph phaseKind) {
	n := p.shardCount(ph)
	if n == 0 {
		return
	}
	prev := p.e.acc.enter(ph)
	p.shardNext.Store(0)
	helpers := len(p.workers) - 1
	if helpers == 0 || n <= 1 {
		p.runPhase(p.workers[0], ph)
		p.e.acc.resume(prev)
		return
	}
	// Token count need not match claim counts: a fast helper may drain
	// several shards and a slow one none. The barrier only needs every
	// token matched by one Done and every shard claimed exactly once
	// (the atomic counter guarantees the latter).
	p.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		p.workCh <- ph
	}
	p.runPhase(p.workers[0], ph)
	p.wg.Wait()
	p.e.acc.resume(prev)
}

// runPhase claims shards until the phase is exhausted. Executes on
// pool workers; the shared shard counter is the only synchronisation.
//
//fdlint:parallel
//fdlint:noalloc
func (p *pool) runPhase(w *netWorker, ph phaseKind) {
	e := p.e
	n := p.shardCount(ph)
	t0 := e.acc.now()
	for {
		s := int(p.shardNext.Add(1)) - 1
		if s >= n {
			if w.busy != nil {
				w.busy[ph] += e.acc.now() - t0
			}
			return
		}
		switch ph {
		case phaseGrants:
			e.runPolicyCell(w, s)
		case phaseSetup:
			e.setupTask(s)
		default:
			lo := s * tagShardLen
			hi := lo + tagShardLen
			if hi > e.tags.len() {
				hi = e.tags.len()
			}
			switch ph {
			case phaseInit:
				e.initShard(w, lo, hi)
			case phaseServe:
				e.serveShard(w, lo, hi)
			case phaseDerive:
				e.deriveShard(w, lo, hi)
			case phaseSettle:
				e.settleShard(lo, hi)
			case phaseDrain:
				e.drainShard(w, lo, hi)
			case phaseCong:
				e.congShard(w, lo, hi)
			case phaseContend:
				e.contendShard(lo, hi)
			case phaseWalk:
				e.walk.move(e.tags.pos, lo, hi, e.tagBits)
			}
		}
	}
}
