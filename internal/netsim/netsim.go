// Package netsim is the multi-tag network scenario engine: it composes
// the point-to-point layers (channel path loss, packet-level MAC
// protocols, the feedback channel's BER model, the rate table's loss
// cliff, and the tag energy budget) into configurable deployments of N
// tags contending under R readers.
//
// A deployment is declared as data (Scenario, loadable from JSON or a
// built-in preset) and executed by Run: readers are placed by a named
// deterministic layout, tags by a named topology, each tag associates
// with the reader whose carrier reaches it strongest, and each tag's
// forward chunk-loss probability and feedback BER derive from its
// geometry exactly the way the calibrated link experiments derive
// theirs. Medium access is framed slotted ALOHA per reader — each
// inventory round opens one contention window per active reader,
// singleton slots carry one frame through the configured MAC protocol,
// collision slots burn airtime that depends on whether the protocol can
// detect the collision early (the paper's full-duplex advantage at
// network scale). Readers share the spectrum either on independent,
// imperfectly isolated channels (neighbouring carriers raise each tag's
// noise floor) or by TDM (one reader per epoch, no interference, less
// service). Optional waypoint mobility drifts tags each epoch and
// re-derives every link quality — and the strongest-carrier association
// — from the new geometry. Optional closed-loop rate adaptation
// (Scenario.RateAdapt) gives each tag a Gauss-Markov fading channel and
// a per-tag policy — fixed, ARF frame probing, or the paper's
// full-duplex per-chunk feedback — with chunk loss drawn from the
// instantaneous per-rate SNR cliff.
//
// Determinism: a run is a pure function of (Scenario, seed) at ANY
// worker count. All randomness flows from one simrand tree split in a
// fixed order. The shared sequential streams (placement, traffic
// arrivals, slot draws, the mobility walk) are cheap and stay serial in
// exactly the order the single-goroutine engine consumed them; all
// expensive randomness (chunk loss, protocol feedback, fading) lives in
// per-tag streams whose PCG state is stored inline in the tag arrays,
// so a reader cell executes identically on whichever worker claims it.
// Per-cell and per-tag-shard results merge in submission order, and the
// one floating-point accumulator whose value depends on summation order
// (adaptInvMult) is summed serially in tag order — so NetResult is
// byte-identical from 1 worker to N, and byte-identical to the
// pre-sharding array-of-structs engine.
//
// Layout: per-tag state is struct-of-arrays (tagState) — parallel
// slices grouped by access pattern, walked as tight loops over
// contiguous memory — and tags are grouped per reader cell in a CSR
// association index, which fixes the serial slot-draw order and the
// per-cell shards of policy-scheduled windows; ALOHA service shards by
// tag range like every other per-tag phase, and each worker serves up
// to eight winners' frames at once (serve.go). The per-round hot path
// is allocation-free at every worker count: worker scratch (serve
// lanes, per-cell serve sums, derive buffers) is allocated once at
// setup, and the worker pool is persistent across rounds. An opt-in
// analytic fast path (Scenario.Analytic) replaces per-chunk simulation
// with closed-form expected airtime per frame; see analytic.go.
package netsim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"

	"repro/internal/channel"
	"repro/internal/energy"
	"repro/internal/feedback"
	"repro/internal/mac"
	"repro/internal/rateadapt"
	"repro/internal/simrand"
	"repro/internal/vecmath"
)

// tagState is the engine's per-tag state as parallel slices (struct of
// arrays): each round-loop pass touches only the columns it needs, so a
// million-tag pass streams contiguous memory instead of striding over
// one fat struct per tag. Every per-tag value has one home: a column
// exists only for a value no TagStats field holds, or one a pass over
// every tag reads each round or epoch (reader, pos). Configuration
// every tag shares (the energy budget's harvester, capacitor and
// circuit draw) lives once on the engine.
type tagState struct {
	pos      []Position // PlaceTags' slice, moved by the mobility walk
	reader   []int32    // serving reader (strongest carrier, re-derived per epoch)
	harvestW []float64  // total harvestable RF power under independent scheduling
	queue    []int32    // frames awaiting delivery
	// Energy budget state: stored energy and accumulated outage time,
	// stepped through the engine's shared energy.Budget configuration.
	energyJ []float64
	outageT []float64
	alive   []bool
	// Per-round accumulators for energy accounting.
	txCount []int32   // frames transmitted this round
	txDt    []float64 // seconds spent transmitting this round
	// Per-tag random streams stored inline and drawn in place — the
	// same streams the array-of-structs engine held as one
	// *simrand.Source per tag: forward chunk loss, and the protocol
	// stream (full-duplex seeds, congestion jitter).
	loss  []simrand.Source
	proto []simrand.Source
	stats []TagStats
}

func (t *tagState) len() int { return len(t.alive) }

// TagStats reports one tag's outcome.
type TagStats struct {
	// ID indexes the tag in placement order.
	ID int
	// Reader is the serving reader (strongest carrier) at the final
	// epoch.
	Reader int
	// X, Y locate the tag at the final epoch (tags move under
	// mobility); DistanceM is the range to the serving reader.
	X, Y, DistanceM float64
	// SNRdB is the forward-link SNR at the tag at the final epoch,
	// including inter-reader interference in the noise floor under
	// independent scheduling.
	SNRdB float64
	// ChunkLossProb and FeedbackBER are the geometry-derived link
	// qualities the MAC saw at the final epoch.
	ChunkLossProb, FeedbackBER float64
	// FramesOffered counts frames entering the queue; FramesDelivered
	// the ones the MAC carried; FramesDropped the open-loop arrivals
	// lost to a full queue. Dead tags stop accruing arrivals: traffic
	// to a browned-out tag is neither offered nor dropped.
	FramesOffered, FramesDelivered, FramesDropped int
	// Collisions counts contention slots this tag lost to a collision.
	Collisions int
	// AirtimeBytes is the tag's share of transmitted airtime.
	AirtimeBytes int64
	// MACAttempts counts frame transmission attempts inside the MAC
	// exchanges this tag ran (>= FramesDelivered; the gap is the
	// per-frame retry burden the link quality imposed).
	MACAttempts int64
	// OutageFraction is the fraction of simulated time spent browned
	// out; Alive is the final state; LifetimeS is the time of death
	// (total simulated time when the tag survived).
	OutageFraction float64
	Alive          bool
	LifetimeS      float64

	// Closed-loop congestion-control outcomes (zeros when the
	// scenario's Congestion spec is disabled).

	// Timeouts counts loss events (RTO expiries and MAC-attempt
	// exhaustion); Retransmissions counts parked frames re-entering
	// service; RetxDropped counts frames lost to a full retx queue.
	Timeouts, Retransmissions, RetxDropped int
	// CwndFinal and SRTTRounds report the controller state at the end
	// of the run (SRTTRounds is 0 before the first RTT sample).
	CwndFinal, SRTTRounds float64

	// Closed-loop rate adaptation statistics (nil slices / zeros when
	// the scenario's RateAdapt spec is disabled).

	// RateChunks[i] counts chunks transmitted at rate i;
	// RateLostChunks[i] the ones lost at that rate.
	RateChunks, RateLostChunks []int64
	// RateSwitches counts rate transitions across the run.
	RateSwitches int64
	// AdaptChunks is total chunks under adaptation; AdaptLagChunks the
	// ones transmitted off the oracle rate (the highest rate the
	// instantaneous SNR sustains) — the per-tag adaptation lag.
	AdaptChunks, AdaptLagChunks int64
	// MeanRateMult is the time-weighted mean rate multiplier.
	MeanRateMult float64
}

// NetResult aggregates one scenario run.
type NetResult struct {
	// Scenario echoes the (defaulted) scenario that ran.
	Scenario Scenario
	// Seed echoes the run seed.
	Seed uint64
	// Tags holds per-tag outcomes in placement order.
	Tags []TagStats
	// Readers holds per-reader outcomes in placement order.
	Readers []ReaderStats
	// Rounds actually executed.
	Rounds int
	// FramesOffered / FramesDelivered / FramesDropped sum over tags.
	FramesOffered, FramesDelivered, FramesDropped int64
	// GoodputBytes is payload delivered across all cells.
	GoodputBytes int64
	// ElapsedBytes is the shared clock: each round advances it by the
	// longest concurrently active reader's window (bytes on air at the
	// base rate), since independent channels run in parallel.
	ElapsedBytes int64
	// IdleSlots / SingletonSlots / CollisionSlots classify contention
	// slots across every reader.
	IdleSlots, SingletonSlots, CollisionSlots int64
	// CollisionBytes is airtime burned by collisions.
	CollisionBytes int64
	// SimulatedS is ElapsedBytes converted to seconds at the bit rate.
	SimulatedS float64
	// RateSwitches / AdaptChunks / AdaptLagChunks aggregate the per-tag
	// rate-adaptation statistics (zero when RateAdapt is disabled);
	// adaptInvMult backs MeanRateMult.
	RateSwitches, AdaptChunks, AdaptLagChunks int64
	adaptInvMult                              float64
	// Timeouts / Retransmissions / RetxDropped aggregate the per-tag
	// congestion-control counters (zero when Congestion is disabled);
	// cwndSum backs MeanCwnd.
	Timeouts, Retransmissions, RetxDropped int64
	cwndSum                                float64
}

// MeanCwnd returns the population mean congestion window at the end of
// the run (0 when congestion control is disabled).
func (r *NetResult) MeanCwnd() float64 {
	if r.cwndSum == 0 || len(r.Tags) == 0 {
		return 0
	}
	return r.cwndSum / float64(len(r.Tags))
}

// MeanRateMult returns the population's time-weighted mean rate
// multiplier under rate adaptation (0 when disabled).
func (r *NetResult) MeanRateMult() float64 {
	if r.adaptInvMult == 0 {
		return 0
	}
	return float64(r.AdaptChunks) / r.adaptInvMult
}

// AdaptLagFraction returns the fraction of adapted chunks transmitted
// off the oracle rate — how far the policy trailed the channel.
func (r *NetResult) AdaptLagFraction() float64 {
	if r.AdaptChunks == 0 {
		return 0
	}
	return float64(r.AdaptLagChunks) / float64(r.AdaptChunks)
}

// DeliveryRate returns delivered frames over offered frames.
func (r *NetResult) DeliveryRate() float64 {
	if r.FramesOffered == 0 {
		return 0
	}
	return float64(r.FramesDelivered) / float64(r.FramesOffered)
}

// Throughput returns goodput bytes per elapsed byte-time on the shared
// clock — the deployment's aggregate efficiency.
func (r *NetResult) Throughput() float64 {
	if r.ElapsedBytes == 0 {
		return 0
	}
	return float64(r.GoodputBytes) / float64(r.ElapsedBytes)
}

// CollisionFraction returns collision slots over non-idle slots.
func (r *NetResult) CollisionFraction() float64 {
	busy := r.SingletonSlots + r.CollisionSlots
	if busy == 0 {
		return 0
	}
	return float64(r.CollisionSlots) / float64(busy)
}

// AliveFraction returns the fraction of tags above brown-out at the end.
func (r *NetResult) AliveFraction() float64 {
	if len(r.Tags) == 0 {
		return 0
	}
	alive := 0
	for i := range r.Tags {
		if r.Tags[i].Alive {
			alive++
		}
	}
	return float64(alive) / float64(len(r.Tags))
}

// MeanLifetimeS returns the mean per-tag lifetime in seconds (survivors
// count the full simulated time).
func (r *NetResult) MeanLifetimeS() float64 {
	if len(r.Tags) == 0 {
		return 0
	}
	var sum float64
	for i := range r.Tags {
		sum += r.Tags[i].LifetimeS
	}
	return sum / float64(len(r.Tags))
}

// MeanSNRdB returns the population mean forward SNR.
func (r *NetResult) MeanSNRdB() float64 {
	if len(r.Tags) == 0 {
		return 0
	}
	var sum float64
	for i := range r.Tags {
		sum += r.Tags[i].SNRdB
	}
	return sum / float64(len(r.Tags))
}

// FairnessIndex returns Jain's fairness index over per-tag delivered
// frames: 1 when every tag got equal service, 1/N when one tag took
// everything, and 0 when nothing was delivered at all (no service to be
// fair about).
func (r *NetResult) FairnessIndex() float64 {
	var sum, sumSq float64
	for i := range r.Tags {
		x := float64(r.Tags[i].FramesDelivered)
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	n := float64(len(r.Tags))
	return sum * sum / (n * sumSq)
}

// roundObserver watches a run: init once after setup, observe once per
// round after energy settlement, before the round's transmit columns
// (txCount, txDt) reset. Observers draw no randomness and change
// nothing the run computes from, so an observed run computes exactly
// what an unobserved one does; an observe error aborts the run and is
// returned unchanged. The streamer behind RunStream is one; the
// property tests' probes are another.
type roundObserver interface {
	init(e *engine)
	observe(e *engine, res *NetResult, round int) error
}

// nopObserver is the batch runs' observer: it watches nothing.
type nopObserver struct{}

func (nopObserver) init(*engine)                           {}
func (nopObserver) observe(*engine, *NetResult, int) error { return nil }

// engine holds one run's state: the tag arrays plus every piece of
// scratch the round loop reuses, so steady-state rounds allocate
// nothing at any worker count.
type engine struct {
	sc      Scenario
	pl      channel.LogDistance
	rate    rateadapt.RateSpec
	readers []Position
	rstats  []ReaderStats
	tags    tagState
	fade    *fadeState    // closed-loop rate adaptation state (nil when disabled)
	cong    *congState    // closed-loop congestion control state (nil when disabled)
	sched   *schedState   // reader scheduling policy state (nil under PolicyAloha)
	flt     *faultState   // fault-injection state (nil when disabled)
	walk    *waypointWalk // waypoint mobility state (nil when static)
	// acc accumulates the run's phase times (phases.go); nil unless
	// the run is phased.
	acc *PhaseTimes
	// gains[i*R+r] is the linear power gain from reader r to tag i,
	// re-derived per epoch under mobility. Only TDM settlement reads it
	// (a tag harvests the epoch's single carrier); nil otherwise.
	gains []float64
	// budget is the energy budget configuration every tag shares (its
	// own state is the scenario's start voltage); budgetT is the time
	// every tag's budget has been stepped through, since settlement
	// steps every tag, dead or alive, by the same dt each round.
	budget  energy.Budget
	budgetT float64
	// Reader-cell association in CSR form: the tags served by reader r
	// are tagsByReader[readerOff[r]:readerOff[r+1]], in tag index order.
	// Rebuilt per epoch with no allocation; it orders the slot draws and
	// is the grant phase's unit of sharding.
	tagsByReader []int32
	readerOff    []int32
	readerFill   []int32 // rebuild cursor scratch
	backlog      []int64 // per-reader queued + retx-parked frames at the last census
	// couplingW is the linear inter-channel leakage factor under
	// independent scheduling (0 under TDM).
	couplingW float64
	tdm       bool
	analytic  bool
	seed      uint64 // the run seed (the fading streams hash it)
	// params carries the shared MAC dimensions; FeedbackBER is per tag
	// and written into a full-duplex lane's machine before each frame.
	params mac.Params

	// Round-loop scratch. slotChoice is each ALOHA contender's drawn
	// slot. slotOnce and slotMany are per-active-cell bitsets of
	// slotWords words each: cell ci's slot s has its bit in
	// slotOnce[ci*slotWords:] once some contender drew it, and in
	// slotMany once a second one did. harvest records each tag's
	// settled harvest power when a test observer allocates it; nil in
	// production runs.
	slotChoice []int32
	slotWords  int
	slotOnce   []uint64
	slotMany   []uint64
	harvest    []float64
	// tagBits is one bit per tag of scratch between a parallel pass and
	// a later one: the walkers that arrived (waypointWalk.move), then
	// the round's contenders (contendShard), which the slot draws and
	// the serve phase read. Tag shards are whole words of it.
	tagBits []uint64
	// setupSrc holds the serial streams the set-up tasks draw, each
	// indexed by the one task that draws it; cleared after set-up.
	setupSrc [numSetupTasks]*simrand.Source

	secondsPerByte float64
	chunkAir       int64
	collisionCost  int64

	// Worker pool and per-phase dispatch state (pool.go).
	pool pool
	// activeCells lists the reader cells the current round opens
	// (all readers under independent scheduling, one under TDM), and
	// cellOf[r] is reader r's index in it (-1 when r is closed).
	// cellContenders counts each ALOHA cell's contenders at the draw.
	activeCells    []int32
	cellOf         []int32
	cellContenders []int32
	cellAcc        []cellAcc
	activeReader   int // <0: every reader is active
	// curRound is the 0-based round the parallel phases are executing;
	// written serially between phases. settleDt is its duration and
	// settleNow the simulated time at its end (at the drain, the run's
	// horizon).
	curRound  int
	settleDt  float64
	settleNow float64
}

// Run executes the scenario deterministically under the given seed.
func Run(sc Scenario, seed uint64) (*NetResult, error) { return RunParallel(sc, seed, 1) }

// RunParallel executes the scenario across the given number of engine
// workers (<= 0 selects one per CPU). The result is byte-identical to
// Run: sharding only changes which goroutine executes each reader cell
// and tag range, never what they compute or which stream they draw.
func RunParallel(sc Scenario, seed uint64, workers int) (*NetResult, error) {
	return run(context.Background(), sc, seed, workers, nil)
}

// ResolveWorkers maps the CLI convention (<= 0 means one worker per
// CPU) to a concrete engine worker count.
func ResolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// run is the round loop behind every entry point. obs (nil for none)
// sees each settled round; ctx is checked between rounds.
func run(ctx context.Context, sc Scenario, seed uint64, workers int, obs roundObserver) (*NetResult, error) {
	sc.ApplyDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	// One random tree, split in fixed order; every source below is
	// always split even when unused (a static run still splits the
	// mobility source) so the per-tag streams never depend on which
	// features are enabled beyond the scenario itself. The streams
	// below are serial: set-up hands placeSrc and mobilitySrc each to a
	// single task, and the round loop draws the others only on this
	// goroutine between parallel phases. A draw inside a shard body
	// would race and shift every later draw, which the race job and
	// TestGoldenDigests catch.
	root := simrand.New(seed)
	placeSrc := root.Split()
	trafficSrc := root.Split()
	slotSrc := root.Split()
	mobilitySrc := root.Split()
	// The fault stream is hashed off the run seed (the fadeSeed
	// pattern), not split from the tree: enabling faults must not shift
	// any stream the fault-free engine draws. It stays serial — every
	// transition happens between rounds on this goroutine.
	faultSrc := simrand.New(faultSeed(seed))

	nw := ResolveWorkers(workers)
	acc, _ := obs.(*PhaseTimes)
	acc.begin(nw, phaseEngine)
	e, err := newEngine(sc, seed, nw, root, placeSrc, mobilitySrc, acc)
	if err != nil {
		return nil, err
	}
	defer e.pool.stop()
	if obs == nil {
		obs = nopObserver{}
	}
	obs.init(e)

	res := &NetResult{Scenario: sc, Seed: seed}
	// A closed-loop run is done once every live queue drained at the end
	// of the previous round; the settlement phase maintains the flag.
	anyQueued := true
	for round := 0; round < sc.MaxRounds; round++ {
		// A cancelled run (client disconnect, service shutdown) stops
		// here; the deferred pool stop tears the engine down.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if sc.OfferedLoad == 0 && !anyQueued {
			// Check before counting the round so Rounds reports only
			// rounds that actually opened a window.
			break
		}
		res.Rounds = round + 1
		e.curRound = round
		acc.enter(phaseOpen)
		e.openRound(faultSrc)
		acc.enter(phaseArrive)
		e.arrive(trafficSrc)
		if e.sched != nil && e.sched.policy == PolicyDeadline {
			acc.enter(phaseDeadline)
			e.dropDeadlines(round)
		}
		if e.cong != nil {
			// Congestion pass (parallel over tag shards): RTO expiry,
			// retx re-admission, and the pacing gate set each tag's
			// contention eligibility for this round.
			e.pool.dispatch(phaseCong)
		}
		// ALOHA slot draws stay serial in cell order and classify
		// every slot as they go; service then runs in parallel over
		// tag ranges and never touches slotSrc. Policy-scheduled cells
		// grant slots instead of drawing them, one cell per shard.
		if e.sched == nil {
			acc.enter(phaseSlots)
			e.drawSlots(slotSrc)
			e.pool.dispatch(phaseServe)
		} else {
			e.pool.dispatch(phaseGrants)
		}
		acc.enter(phaseReduce)
		anyQueued = e.settle(res, e.reduceWindows(res))
		acc.enter(phaseObserve)
		if err := obs.observe(e, res, round); err != nil {
			return nil, err
		}
		clear(e.tags.txCount)
		clear(e.tags.txDt)
	}
	acc.enter(phaseFold)
	e.drain(res)
	acc.end()
	return res, nil
}

// newEngine builds a run's engine from a defaulted, validated scenario,
// placing tags from placeSrc, drawing the waypoint walk's first targets
// from mobilitySrc (under mobility) and seeding the tags from root, and
// returns it with its worker pool started (the caller stops it) and
// links derived. The independent set-up jobs run as one pool phase
// (setup.go), and the per-tag expansion as another.
func newEngine(sc Scenario, seed uint64, workers int, root, placeSrc, mobilitySrc *simrand.Source, acc *PhaseTimes) (*engine, error) {
	readers := PlaceReaders(sc.Readers)
	if err := checkPlacement(sc.Topology, sc.Tags, sc.RadiusM, readers); err != nil {
		return nil, err
	}

	params := mac.Params{
		PayloadBytes:   sc.PayloadBytes,
		ChunkBytes:     sc.ChunkBytes,
		AbortThreshold: sc.AbortThreshold,
		BackoffChunks:  sc.BackoffChunks,
		MaxAttempts:    sc.MaxAttempts,
	}
	chunkAir := int64(params.ChunkAirBytes())
	// A whole-frame attempt on air, for collision cost accounting.
	frameAir := int64(params.FrameAirBytes())
	// Collision cost: a full-duplex reader sees the feedback margin
	// collapse and aborts within AbortThreshold chunks; a half-duplex
	// protocol only learns at the missing end-of-frame ACK, so the whole
	// attempt is burned.
	collisionCost := frameAir
	if sc.Protocol == "full-duplex" {
		collisionCost = int64(params.HeaderAirBytes()) + int64(sc.AbortThreshold)*chunkAir
		// Detection can never cost more than the frame it interrupts.
		if collisionCost > frameAir {
			collisionCost = frameAir
		}
	}

	R := len(readers)
	e := &engine{
		sc:             sc,
		pl:             channel.NewLogDistance(sc.FreqHz, sc.PathLossExp),
		rate:           rateadapt.RateSpec{Name: "1x", Mult: 1, ReqSNRdB: sc.ReqSNRdB},
		readers:        readers,
		rstats:         make([]ReaderStats, R),
		readerOff:      make([]int32, R+1),
		readerFill:     make([]int32, R),
		backlog:        make([]int64, R),
		tdm:            sc.Readers.Scheduling == SchedulingTDM,
		analytic:       sc.Analytic,
		seed:           seed,
		params:         params,
		slotWords:      (sc.ContentionWindow + 63) / 64,
		secondsPerByte: 8 / sc.BitRateBps,
		chunkAir:       chunkAir,
		collisionCost:  collisionCost,
		activeCells:    make([]int32, 0, R),
		cellOf:         make([]int32, R),
		cellContenders: make([]int32, R),
		cellAcc:        make([]cellAcc, R),
		activeReader:   -1,
		acc:            acc,
		setupSrc:       [numSetupTasks]*simrand.Source{taskPlace: placeSrc, taskWalk: mobilitySrc, taskRoot: root},
	}
	if !e.tdm {
		e.couplingW = math.Pow(10, -sc.Readers.IsolationdB/10)
	}
	e.budget = energy.Budget{
		Harvester: energy.Harvester{Efficiency: sc.HarvesterEff, SensitivityW: sc.HarvesterFloorW},
		Cap:       energy.Capacitor{CapacitanceF: sc.CapacitanceF},
		CircuitW:  sc.IdleCircuitW,
	}
	e.budget.Cap.SetVoltage(sc.StartVoltageV)
	for r := range e.rstats {
		e.rstats[r] = ReaderStats{ID: r, X: readers[r].X, Y: readers[r].Y}
	}
	e.pool.start(e, workers)
	e.pool.dispatch(phaseSetup)
	e.setupSrc = [numSetupTasks]*simrand.Source{}
	// The serve lanes copy the rate adapter's configuration, which the
	// set-up phase built.
	for _, w := range e.pool.workers {
		w.lanes.init(e)
	}
	e.pool.dispatch(phaseInit)
	e.deriveLinks()
	return e, nil
}

// openRound runs the serial transitions before a round's contention:
// at an epoch boundary the mobility walk advances (links re-derive) and
// TDM hands the carrier on; fault transitions follow (re-association
// around outages, churn flushes, the per-cell interference view); then
// the list of cells the round opens is rebuilt.
func (e *engine) openRound(faultSrc *simrand.Source) {
	round, epochLen := e.curRound, e.sc.Mobility.EpochRounds
	if round%epochLen == 0 {
		if e.walk != nil && round > 0 {
			// The walkers that have not arrived move in parallel; the
			// arrivals redraw their targets here, in tag order.
			e.pool.dispatch(phaseWalk)
			e.walk.redraw(e.tagBits)
			e.deriveLinks()
		}
		if e.tdm {
			e.activeReader = (round / epochLen) % len(e.readers)
		}
	}
	if e.flt != nil {
		e.flt.step(e, round, faultSrc)
	}
	e.activeCells = e.activeCells[:0]
	for r := range e.readers {
		e.cellOf[r] = -1
		// An outaged reader opens no window; its tags either
		// re-associated at the outage edge or (when every reader is
		// down) wait it out.
		if (e.activeReader < 0 || r == e.activeReader) && (e.flt == nil || !e.flt.down[r]) {
			e.cellOf[r] = int32(len(e.activeCells))
			e.activeCells = append(e.activeCells, int32(r))
		}
	}
}

// arrive draws the round's open-loop arrivals. Policy: the Poisson draw
// happens for every tag, dead or alive, so one tag's death never shifts
// the arrival stream the others see; a dead tag's frames are simply not
// offered — it can neither queue nor deliver them, and counting them
// would deflate DeliveryRate with traffic that never existed for the
// MAC.
func (e *engine) arrive(trafficSrc *simrand.Source) {
	sc := &e.sc
	if sc.OfferedLoad <= 0 {
		return
	}
	t := &e.tags
	l := math.Exp(-sc.OfferedLoad) // Poisson's threshold, once per round
	for i := 0; i < sc.Tags; i++ {
		k := trafficSrc.PoissonL(sc.OfferedLoad, l)
		if !t.alive[i] {
			continue
		}
		if e.flt != nil && e.flt.dormant[i] {
			// A churned-away tag generates no traffic while gone (the
			// draw above still happened, so its return never shifts the
			// arrival stream the others see).
			continue
		}
		t.stats[i].FramesOffered += k
		free := int32(sc.QueueCap) - t.queue[i]
		if free < 0 {
			// A retx re-admission can push the queue one past the cap
			// transiently; never let arrivals "fill" a negative gap.
			free = 0
		}
		if int32(k) > free {
			t.stats[i].FramesDropped += k - int(free)
			k = int(free)
		}
		if s := e.sched; s != nil && t.queue[i] == 0 && k > 0 {
			s.backlogSince[i] = int32(e.curRound)
		}
		t.queue[i] += int32(k)
	}
}

// reduceWindows folds every worker's served-exchange sums into their
// cells, then the round's cell outcomes into res, in cell order, and
// returns the round's byte-time: independent channels run
// concurrently, so the clock advances by the longest window. Hotspot
// bookkeeping rides along: a cell whose occupancy first reaches
// satOnsetFrac marks its saturation onset, and the first later round
// back at or below satRecoveryFrac marks recovery.
func (e *engine) reduceWindows(res *NetResult) int64 {
	var roundBytes int64
	for ci, r := range e.activeCells {
		acc := &e.cellAcc[ci]
		rs := &e.rstats[r]
		for _, w := range e.pool.workers {
			sa := &w.serve[ci]
			acc.windowBytes += sa.elapsed
			acc.goodputBytes += sa.goodput
			rs.FramesDelivered += int(sa.delivered)
			*sa = serveAcc{}
		}
		if acc.windowBytes > roundBytes {
			roundBytes = acc.windowBytes
		}
		res.IdleSlots += acc.idleSlots
		res.SingletonSlots += acc.singletonSlots
		res.CollisionSlots += acc.collisionSlots
		res.CollisionBytes += acc.collisionBytes
		res.GoodputBytes += acc.goodputBytes
		occ := float64(acc.singletonSlots+acc.collisionSlots) / float64(e.sc.ContentionWindow)
		switch {
		case rs.SaturationOnset == 0:
			if occ >= satOnsetFrac {
				rs.SaturationOnset = e.curRound + 1
			}
		case rs.RecoveryRound == 0:
			if occ <= satRecoveryFrac {
				rs.RecoveryRound = e.curRound + 1
			}
		}
	}
	return roundBytes
}

// settle advances the clock by the round's byte-time and settles every
// tag's energy budget over it in one step (parallel over tag shards;
// see settleShard). It reports whether some live tag still holds work.
func (e *engine) settle(res *NetResult, roundBytes int64) bool {
	res.ElapsedBytes += roundBytes
	e.settleDt = float64(roundBytes) * e.secondsPerByte
	e.settleNow = float64(res.ElapsedBytes) * e.secondsPerByte
	e.pool.anyQueued.Store(false)
	e.pool.dispatch(phaseSettle)
	e.budgetT += e.settleDt
	return e.pool.anyQueued.Load()
}

// census walks every tag once: it sums the frame counters, counts the
// live tags, and rebuilds e.backlog by current association. The sums
// are integers, so order does not matter. The stream observer takes it
// every round; the drain folds the same sums from its shards.
func (e *engine) census() (offered, delivered, dropped int64, alive int) {
	t := &e.tags
	clear(e.backlog)
	for i := range t.stats {
		ts := &t.stats[i]
		offered += int64(ts.FramesOffered)
		delivered += int64(ts.FramesDelivered)
		dropped += int64(ts.FramesDropped)
		if t.alive[i] {
			alive++
		}
		q := int64(t.queue[i])
		if e.cong != nil {
			q += int64(e.cong.retxQ[i])
		}
		e.backlog[t.reader[i]] += q
	}
	return offered, delivered, dropped, alive
}

// drain finalises the run into res. The per-tag finalisation writes
// stats in place (the engine is discarded after the run, so the result
// owns the stats and reader rows without a copy); the per-reader rows
// attribute the stranded backlog and timeouts by final association.
func (e *engine) drain(res *NetResult) {
	res.SimulatedS = e.settleNow
	e.pool.dispatch(phaseDrain)
	res.Tags = e.tags.stats
	// The shards' integer sums, in worker order (any order gives the
	// same integers): census's frame totals and backlog, and the
	// adaptation counters.
	clear(e.backlog)
	for _, w := range e.pool.workers {
		res.FramesOffered += w.offered
		res.FramesDelivered += w.delivered
		res.FramesDropped += w.dropped
		res.RateSwitches += w.switches
		res.AdaptChunks += w.chunks
		res.AdaptLagChunks += w.lag
		for r, q := range w.backlog {
			e.backlog[r] += q
		}
	}
	// Serial in tag order: the float sums (adaptInvMult, cwndSum)
	// depend on order and must match the serial engine exactly.
	if f := e.fade; f != nil {
		for _, m := range f.invMult {
			res.adaptInvMult += m
		}
	}
	if c := e.cong; c != nil {
		for i := range res.Tags {
			ts := &res.Tags[i]
			res.Timeouts += int64(ts.Timeouts)
			res.Retransmissions += int64(ts.Retransmissions)
			res.RetxDropped += int64(ts.RetxDropped)
			res.cwndSum += c.cwnd[i]
			e.rstats[e.tags.reader[i]].Timeouts += int64(ts.Timeouts)
		}
	}
	for r := range e.rstats {
		rs := &e.rstats[r]
		rs.QueueDepth = e.backlog[r]
		rs.AssociatedTags = int(e.readerOff[r+1] - e.readerOff[r])
		if f := e.flt; f != nil {
			rs.OutageRounds = int(f.outageRounds[r])
			rs.InterferenceRounds = int(f.interfRounds[r])
		}
	}
	res.Readers = e.rstats
}

// Hotspot thresholds: a reader cell is saturated when its window
// occupancy (non-idle slots over the contention window) reaches
// satOnsetFrac, and has recovered once it falls back to
// satRecoveryFrac — the hysteresis keeps a cell hovering at the knee
// from toggling.
const (
	satOnsetFrac    = 0.95
	satRecoveryFrac = 0.5
)

// contends reports whether tag i contends for a slot this round: alive
// with a backlog, not churned away, and (under congestion control)
// granted eligibility by this round's congestion pass. With every
// optional layer disabled this reduces exactly to the alive && queued
// check the pre-congestion engine made.
func (e *engine) contends(i int32) bool {
	t := &e.tags
	if !t.alive[i] || t.queue[i] == 0 {
		return false
	}
	if e.flt != nil && e.flt.dormant[i] {
		return false
	}
	if e.cong != nil && !e.cong.eligible[i] {
		return false
	}
	return true
}

// drawSlots draws every ALOHA contender's slot for each active cell,
// in cell order then tag index order within the cell's association
// list — the exact slotSrc sequence of the serial engine — and
// classifies the cell's slots as it goes: a slot's bit lands in the
// cell's slotOnce set at its first draw and in slotMany at its second.
// Popcounts then give the window's idle, singleton and collision slots,
// their byte-time and the reader's slot stats, so the serve phase only
// has to look up each contender's own bit. Deciding who contends is a
// parallel pass over tag ranges (contendShard); the serial walk over
// each cell's list reads one bit per tag. Part of the round loop
// guarded by TestRoundLoopAllocFree.
func (e *engine) drawSlots(slotSrc *simrand.Source) {
	e.pool.dispatch(phaseContend)
	cw := e.sc.ContentionWindow
	nw := e.slotWords
	for ci, r := range e.activeCells {
		once := e.slotOnce[ci*nw : (ci+1)*nw]
		many := e.slotMany[ci*nw : (ci+1)*nw]
		clear(once)
		clear(many)
		contenders := int32(0)
		for _, i := range e.cellTags(int(r)) {
			if e.tagBits[i>>6]&(1<<(i&63)) == 0 {
				continue
			}
			s := slotSrc.IntN(cw)
			e.slotChoice[i] = int32(s)
			k, bit := s>>6, uint64(1)<<(s&63)
			many[k] |= once[k] & bit
			once[k] |= bit
			contenders++
		}
		e.cellContenders[ci] = contenders
		var used, collided int64
		for k := range once {
			used += int64(bits.OnesCount64(once[k]))
			collided += int64(bits.OnesCount64(many[k]))
		}
		acc := &e.cellAcc[ci]
		*acc = cellAcc{
			idleSlots:      int64(cw) - used,
			singletonSlots: used - collided,
			collisionSlots: collided,
			collisionBytes: collided * e.collisionCost,
		}
		// Empty slots are short (one chunk-time); a collision costs its
		// detection airtime. The served exchanges add theirs at the
		// reduce.
		acc.windowBytes = acc.idleSlots*e.chunkAir + acc.collisionBytes
		rs := &e.rstats[r]
		rs.SingletonSlots += acc.singletonSlots
		rs.CollisionSlots += acc.collisionSlots
	}
}

// contendShard is the parallel body of the contender pass for tags
// [lo, hi), which start on a word boundary: bit i of tagBits is set
// when tag i contends this round.
func (e *engine) contendShard(lo, hi int) {
	for i0 := lo; i0 < hi; i0 += 64 {
		var word uint64
		for j := range min(64, hi-i0) {
			if e.contends(int32(i0 + j)) {
				word |= 1 << j
			}
		}
		e.tagBits[i0>>6] = word
	}
}

// cellTags returns reader r's association list (tag indices in tag
// order).
func (e *engine) cellTags(r int) []int32 {
	return e.tagsByReader[e.readerOff[r]:e.readerOff[r+1]]
}

// deriveLinks recomputes, for the current tag positions, every gain,
// the strongest-carrier association, and each tag's forward chunk-loss
// probability and feedback BER — using exactly the calibrations the
// point-to-point link experiments use. The per-tag geometry work shards
// across workers (each tag's derivation is independent); the CSR
// association index is then rebuilt serially in tag order, so cell
// iteration order — and therefore the slot-draw stream — never depends
// on sharding. Called once for static deployments and once per epoch
// under mobility.
func (e *engine) deriveLinks() {
	e.pool.dispatch(phaseDerive)
	prev := e.acc.enter(phaseAssoc)

	t := &e.tags
	R := len(e.readers)
	clear(e.readerFill)
	for i := 0; i < t.len(); i++ {
		e.readerFill[t.reader[i]]++
	}
	off := int32(0)
	for r := 0; r < R; r++ {
		e.readerOff[r] = off
		off += e.readerFill[r]
		e.readerFill[r] = e.readerOff[r]
	}
	e.readerOff[R] = off
	for i := 0; i < t.len(); i++ {
		r := t.reader[i]
		e.tagsByReader[e.readerFill[r]] = int32(i)
		e.readerFill[r]++
	}
	e.acc.resume(prev)
}

// initShard is the parallel body of per-tag setup for tags [lo, hi):
// stored energy, queue preload, stream-seed expansion, the fade row,
// and the conversion of the set-up phase's polar draws (uniform-disc
// positions, initial waypoints) to Cartesian. Each tag's state is a
// pure function of the root stream parked in its loss slot and its own
// draws (plus the scenario), so the result is identical however the
// ranges are sharded. Stats fields are assigned
// individually — the fresh slices are already zero, so whole-struct
// literals would only re-clear memory the allocator cleared.
func (e *engine) initShard(w *netWorker, lo, hi int) {
	sc := &e.sc
	t := &e.tags
	if polarTopology(sc.Topology) {
		polarToXY(t.pos[lo:hi])
	}
	if e.walk != nil {
		polarToXY(e.walk.waypoints[lo:hi])
	}
	startJ, _, _ := e.budget.State()
	for i := lo; i < hi; i++ {
		t.alive[i] = true
		t.energyJ[i] = startJ
		t.stats[i].ID = i
		// Replay the per-tag split sequence of the array-of-structs
		// engine draw for draw: root.Split() made the tag source (the
		// parked root stream), NewIIDLoss split the loss stream off
		// it, and a second split made the protocol stream.
		tag := t.loss[i]
		t.loss[i].SetState(tag.Uint64(), tag.Uint64())
		t.proto[i].SetState(tag.Uint64(), tag.Uint64())
		if sc.OfferedLoad == 0 {
			t.queue[i] = int32(sc.FramesPerTag)
			t.stats[i].FramesOffered = sc.FramesPerTag
		}
		if e.fade != nil {
			e.fade.initRow(i)
		}
	}
}

// deriveShard is the parallel body of deriveLinks for tags [lo, hi).
// It walks the range in blocks of w.deriveBlock tags and runs each
// stage over the whole block before the next: every reader distance,
// then every path gain, then association and the noise floor, then
// each transcendental output column. Each tag's value still comes from
// the same operations in the same order as a one-tag-at-a-time loop;
// staging lets the Hypot, Log and Exp passes run through the vecmath
// kernels four lanes at a time, and the feedback BERs' Erfc run grouped
// by branch (feedback.ManchesterBERs).
func (e *engine) deriveShard(w *netWorker, lo, hi int) {
	sc := &e.sc
	t := &e.tags
	R := len(e.readers)
	// Under faults, outaged readers stop carrying: they are excluded
	// from association, harvest and interference until they recover
	// (mask is nil when every reader is down — nothing to associate to,
	// so association falls back to geometry and the cells stay closed).
	var downMask []bool
	if e.flt != nil {
		downMask = e.flt.mask()
	}
	sqrtRho, sqrtTx := math.Sqrt(sc.Rho), math.Sqrt(sc.TxPowerW)
	for b0 := lo; b0 < hi; b0 += w.deriveBlock {
		nb := min(w.deriveBlock, hi-b0)
		dist, gain := w.dist[:nb*R], w.gain[:nb*R]
		bestG, noiseW, snrDB := w.bestG[:nb], w.noiseW[:nb], w.snrDB[:nb]
		// Offsets first (x in dist, y in gain), then every distance
		// through the Hypot kernel in place.
		for j := range nb {
			p := t.pos[b0+j]
			for r, rp := range e.readers {
				dist[j*R+r], gain[j*R+r] = p.X-rp.X, p.Y-rp.Y
			}
		}
		for k := 0; k < len(dist); {
			k += vecmath.Hypot(dist[k:], dist[k:], gain[k:])
			for end := min(k+4, len(dist)); k < end; k++ {
				dist[k] = math.Hypot(dist[k], gain[k])
			}
		}
		e.pl.GainsInto(gain, dist)
		for j := range nb {
			i := b0 + j
			best, bg := 0, -1.0
			sumW := 0.0
			for r, g := range gain[j*R : j*R+R] {
				if e.gains != nil {
					e.gains[i*R+r] = g
				}
				if downMask != nil && downMask[r] {
					continue
				}
				sumW += sc.TxPowerW * g
				if g > bg {
					best, bg = r, g
				}
			}
			t.reader[i] = int32(best)
			t.harvestW[i] = sumW
			bestG[j] = bg
			carrierW := sc.TxPowerW * bg
			// Inter-reader interference: under independent scheduling
			// the other carriers leak through the channel isolation into
			// this tag's noise floor every round. Under TDM neighbours
			// are never active in the same epoch, so nothing is added.
			noiseW[j] = sc.NoiseW + e.couplingW*(sumW-carrierW)
			snrDB[j] = carrierW / noiseW[j] // linear; in dB after the next pass
		}
		// 10*Log10(snr), as math.Log10 computes it: Log(snr) * (1/Ln10).
		for j := 0; j < nb; {
			j += vecmath.Log(snrDB[j:], snrDB[j:])
			for end := min(j+4, nb); j < end; j++ {
				snrDB[j] = math.Log(snrDB[j])
			}
		}
		for j, l := range snrDB {
			snrDB[j] = 10 * (l * (1 / math.Ln10))
		}
		// Forward link: SNR at the tag sets the chunk-loss cliff exactly
		// as the rate-adaptation channel model does. The gains are spent,
		// so their scratch holds the batch.
		stats := t.stats[b0 : b0+nb]
		lossP := gain[:nb]
		rateadapt.ChunkLossProbs(e.rate, lossP, snrDB)
		for j, p := range lossP {
			stats[j].ChunkLossProb = p
		}
		// Reverse link: the backscattered feedback rides a round-trip
		// channel; its BER follows the Manchester decoder prediction with
		// the same calibration as the waveform feedback experiments
		// (normalised separation g*sqrt(rho), noise referred to the
		// transmit envelope). The batch groups the lanes by Erfc branch;
		// bestG and noiseW are spent, so they hold its inputs.
		delta, sigma := bestG, noiseW
		for j, bg := range bestG {
			delta[j], sigma[j] = bg*sqrtRho, math.Sqrt(noiseW[j]/2)/sqrtTx
		}
		feedback.ManchesterBERs(delta, delta, sigma, sc.FeedbackSamplesPerBit)
		for j, ber := range delta {
			stats[j].FeedbackBER = ber
		}
		// SNRdB is also the fading mean under rate adaptation: a
		// mobility epoch moves the mean, while the small-scale
		// Gauss-Markov state persists, so motion shifts the channel
		// without resetting it.
		for j, snr := range snrDB {
			i := b0 + j
			best := int(t.reader[i])
			ts := &stats[j]
			ts.Reader = best
			ts.X, ts.Y = t.pos[i].X, t.pos[i].Y
			ts.DistanceM = dist[j*R+best]
			ts.SNRdB = snr
		}
	}
}

// settleShard is the parallel body of the energy settlement for tags
// [lo, hi). Each tag settles independently; the only cross-tag output
// is the anyQueued flag, which is a monotonic OR (order-free).
func (e *engine) settleShard(lo, hi int) {
	sc := &e.sc
	t := &e.tags
	R := len(e.readers)
	dt := e.settleDt
	// b is this shard's scratch copy of the shared budget
	// configuration; each tag's own state is loaded into it around the
	// step.
	b := e.budget
	queued := false
	for i := lo; i < hi; i++ {
		harvestW := t.harvestW[i]
		if e.activeReader >= 0 {
			harvestW = sc.TxPowerW * e.gains[i*R+e.activeReader]
			if e.flt != nil && e.flt.down[e.activeReader] {
				harvestW = 0 // the epoch's only carrier is out
			}
		}
		circuitW := sc.IdleCircuitW
		if dt > 0 {
			if t.txDt[i] > 0 {
				_, during := energy.SplitIncident(harvestW, sc.Rho/2)
				harvestW -= (harvestW - during) * (t.txDt[i] / dt)
			}
			circuitW += float64(t.txCount[i]) * sc.TxEnergyJ / dt
		}
		if e.harvest != nil {
			e.harvest[i] = harvestW
		}
		b.CircuitW = circuitW
		b.SetState(t.energyJ[i], t.outageT[i], e.budgetT)
		ok := b.Step(harvestW, dt)
		t.energyJ[i], t.outageT[i], _ = b.State()
		if !ok && t.alive[i] {
			// Death is latched, so the time of death is final: drain
			// overwrites LifetimeS only for the survivors.
			t.alive[i] = false
			t.stats[i].LifetimeS = e.settleNow
		}
		if t.alive[i] && (t.queue[i] > 0 || (e.cong != nil && e.cong.retxQ[i] > 0)) {
			// Parked retransmissions count as pending work: a closed-loop
			// run must not terminate while frames sit in backoff.
			queued = true
		}
	}
	if queued {
		e.pool.anyQueued.Store(true)
	}
}

// drainShard is the parallel body of the end-of-run finalisation for
// tags [lo, hi): what TagStats does not already hold (rate histograms,
// mean rate multiplier, controller state, outage, lifetime), plus the
// integer sums drain folds: census's frame totals and per-reader
// backlog, and the adaptation counters, in w's own row.
func (e *engine) drainShard(w *netWorker, lo, hi int) {
	t := &e.tags
	sim := e.settleNow
	b := e.budget
	for i := lo; i < hi; i++ {
		ts := &t.stats[i]
		w.offered += int64(ts.FramesOffered)
		w.delivered += int64(ts.FramesDelivered)
		w.dropped += int64(ts.FramesDropped)
		q := int64(t.queue[i])
		if f := e.fade; f != nil {
			nr := f.nr
			ts.RateChunks = f.rateChunks[i*nr : (i+1)*nr : (i+1)*nr]
			ts.RateLostChunks = f.rateLost[i*nr : (i+1)*nr : (i+1)*nr]
			if f.invMult[i] > 0 {
				ts.MeanRateMult = float64(ts.AdaptChunks) / f.invMult[i]
			}
			w.switches += ts.RateSwitches
			w.chunks += ts.AdaptChunks
			w.lag += ts.AdaptLagChunks
		}
		if c := e.cong; c != nil {
			q += int64(c.retxQ[i])
			ts.CwndFinal = c.cwnd[i]
			if c.srtt[i] > 0 {
				ts.SRTTRounds = c.srtt[i]
			}
		}
		w.backlog[t.reader[i]] += q
		b.SetState(t.energyJ[i], t.outageT[i], e.budgetT)
		ts.OutageFraction = b.OutageFraction()
		ts.Alive = t.alive[i]
		if t.alive[i] {
			ts.LifetimeS = sim
		}
	}
}

// String summarises a run for logs.
func (r *NetResult) String() string {
	return fmt.Sprintf("%s: %d tags, %d readers, %d rounds, delivered %d/%d, thrpt=%.3f, coll=%.3f, alive=%.2f",
		r.Scenario.Name, len(r.Tags), len(r.Readers), r.Rounds, r.FramesDelivered, r.FramesOffered,
		r.Throughput(), r.CollisionFraction(), r.AliveFraction())
}
