package netsim

// Streaming execution: RunStream runs a scenario exactly like Run but
// emits a RoundSnapshot after every completed round and aborts cleanly
// when its context is cancelled — the re-entrant, cancellable engine
// surface the fdnetd service is built on (internal/netsvc).
//
// The streamer hooks in as the engine's roundObserver — the same
// interface the property tests' probes implement — so a streamed run
// drives the one round loop every run drives, and RunStream's ctx is
// the one the loop checks at the top of every round. The stream
// changes nothing about what the engine computes: snapshots are
// read-only observations taken after each round's settlement, they
// consume no randomness, and the final NetResult is byte-identical to
// a batch Run/RunParallel of the same (Scenario, seed) at any worker
// count.
//
// Resume rides the engine's purity contract. A run's state after k
// rounds — including every inline per-tag RNG column — is a pure
// function of (Scenario, seed, k), so a resume cursor need only carry
// the round number: StreamOptions.StartRound replays rounds [1, start)
// without emitting them and then streams the remainder, whose snapshots
// are byte-for-byte the tail an uninterrupted run would have produced
// (enforced by TestRunStreamResumeMatchesTail and the CI daemon job).

import (
	"context"
	"fmt"
)

// ReaderRound is one reader's slice of a RoundSnapshot: per-round
// deltas plus the cell's window saturation — the live hotspot counters
// that show which reader cells saturate and when.
type ReaderRound struct {
	// ID indexes the reader in placement order.
	ID int `json:"id"`
	// DeliveredDelta counts frames this reader carried this round.
	DeliveredDelta int `json:"delivered_delta"`
	// SingletonDelta / CollisionDelta classify this reader's non-idle
	// contention slots this round.
	SingletonDelta int64 `json:"singleton_delta"`
	CollisionDelta int64 `json:"collision_delta"`
	// Saturation is the fraction of this reader's contention window
	// occupied by non-idle slots this round: 0 for an idle (or
	// TDM-inactive) cell, approaching 1 as the cell saturates.
	Saturation float64 `json:"saturation"`
	// QueueDepth is the total backlog (queued plus retx-parked frames)
	// of this reader's associated tags after this round — the live
	// hotspot depth gauge.
	QueueDepth int64 `json:"queue_depth"`
	// Down / Interference flag fault-injection state: the reader was
	// dark, or under an interference burst, during this round.
	Down         bool `json:"down,omitempty"`
	Interference bool `json:"interference,omitempty"`
}

// RoundSnapshot is the per-round observation RunStream hands its sink:
// cumulative counters, derived rates, and per-round deltas including
// the per-reader saturation and the rate-histogram movement. The sink
// receives the SAME RoundSnapshot value each round with its fields
// (and the Readers / RateChunksDelta slices) rewritten in place —
// serialize or copy before returning, do not retain it.
type RoundSnapshot struct {
	// Round is the 1-based round this snapshot closes.
	Round int `json:"round"`
	// FramesOffered / FramesDelivered / FramesDropped are cumulative
	// over all tags through this round.
	FramesOffered   int64 `json:"frames_offered"`
	FramesDelivered int64 `json:"frames_delivered"`
	FramesDropped   int64 `json:"frames_dropped"`
	// DeliveredDelta counts frames delivered in this round alone.
	DeliveredDelta int64 `json:"delivered_delta"`
	// Delivery and Throughput are the cumulative rates so far (the
	// NetResult definitions evaluated mid-run).
	Delivery   float64 `json:"delivery"`
	Throughput float64 `json:"throughput"`
	// GoodputBytes / ElapsedBytes / SimulatedS track the shared clock.
	GoodputBytes int64   `json:"goodput_bytes"`
	ElapsedBytes int64   `json:"elapsed_bytes"`
	SimulatedS   float64 `json:"simulated_s"`
	// IdleSlots / SingletonSlots / CollisionSlots are cumulative across
	// every reader.
	IdleSlots      int64 `json:"idle_slots"`
	SingletonSlots int64 `json:"singleton_slots"`
	CollisionSlots int64 `json:"collision_slots"`
	// AliveTags counts tags above brown-out after this round's energy
	// settlement.
	AliveTags int `json:"alive_tags"`
	// Readers holds the per-reader deltas for this round, in placement
	// order.
	Readers []ReaderRound `json:"readers"`
	// RateChunksDelta[i] counts chunks transmitted at rate i this round
	// across the population (nil when rate adaptation is disabled).
	RateChunksDelta []int64 `json:"rate_chunks_delta,omitempty"`
}

// SnapshotSink receives one RoundSnapshot per completed round. A
// non-nil error aborts the run (RunStream returns it unchanged) — the
// service layer uses this to tear an engine down the moment its client
// disconnects.
type SnapshotSink func(*RoundSnapshot) error

// StreamOptions tune RunStream beyond the required arguments.
type StreamOptions struct {
	// Workers is the engine worker count (<= 0 selects one per CPU),
	// with the same byte-identity contract as RunParallel.
	Workers int
	// StartRound, when > 1, resumes a stream: rounds [1, StartRound)
	// are replayed deterministically without being emitted, and the
	// first snapshot the sink sees is round StartRound. 0 and 1 both
	// stream from the beginning. The replay is exact — engine state is
	// a pure function of (Scenario, seed, round) — so the emitted tail
	// is byte-identical to the uninterrupted stream's.
	StartRound int
}

// RunStream executes the scenario like Run, emitting a snapshot after
// each round and aborting (with the context's error) as soon as ctx is
// cancelled between rounds. The returned NetResult is byte-identical
// to Run(sc, seed) when the stream completes.
func RunStream(ctx context.Context, sc Scenario, seed uint64, sink SnapshotSink) (*NetResult, error) {
	return RunStreamOptions(ctx, sc, seed, StreamOptions{Workers: 1}, sink)
}

// RunStreamOptions is RunStream with explicit worker-count and resume
// options.
func RunStreamOptions(ctx context.Context, sc Scenario, seed uint64, opts StreamOptions, sink SnapshotSink) (*NetResult, error) {
	if sink == nil {
		return nil, fmt.Errorf("netsim: RunStream needs a snapshot sink")
	}
	if opts.StartRound < 0 {
		return nil, fmt.Errorf("netsim: stream start round %d must be non-negative", opts.StartRound)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return run(ctx, sc, seed, opts.Workers, &streamer{sink: sink, start: opts.StartRound})
}

// streamer is the roundObserver behind RunStream. It holds the per-run
// streaming state: the previous round's cumulative counters (so deltas
// cost one subtraction) and the reused snapshot buffers. All reads
// happen between rounds on the dispatching goroutine, so no
// synchronisation is needed.
type streamer struct {
	sink  SnapshotSink
	start int

	snap          RoundSnapshot
	prevDelivered int64
	prevReaders   []ReaderStats
	prevRate      []int64
	curRate       []int64
}

// init sizes the reused buffers once the engine geometry is known.
func (st *streamer) init(e *engine) {
	R := len(e.rstats)
	st.snap.Readers = make([]ReaderRound, R)
	st.prevReaders = make([]ReaderStats, R)
	if e.fade != nil {
		nr := e.fade.nr
		st.prevRate = make([]int64, nr)
		st.curRate = make([]int64, nr)
		st.snap.RateChunksDelta = make([]int64, nr)
	}
}

// observe fills the snapshot for the round that just settled and hands
// it to the sink (unless the round predates a resume cursor). Deltas
// are tracked every round regardless of emission, so a resumed stream's
// first snapshot carries the same deltas the uninterrupted stream's
// did. Runs once per settled round inside the round loop the
// TestRoundLoopAllocFree table budgets (its streamed row), so it must
// stay allocation-free: the snapshot struct and its slices are sized
// once in init and reused for every round.
func (st *streamer) observe(e *engine, res *NetResult, round int) error {
	s := &st.snap
	t := &e.tags
	s.Round = round + 1

	offered, delivered, dropped, alive := e.census()
	s.FramesOffered, s.FramesDelivered, s.FramesDropped = offered, delivered, dropped
	s.DeliveredDelta = delivered - st.prevDelivered
	st.prevDelivered = delivered
	s.AliveTags = alive
	s.Delivery = 0
	if offered > 0 {
		s.Delivery = float64(delivered) / float64(offered)
	}
	s.GoodputBytes = res.GoodputBytes
	s.ElapsedBytes = res.ElapsedBytes
	s.Throughput = res.Throughput()
	s.SimulatedS = float64(res.ElapsedBytes) * e.secondsPerByte
	s.IdleSlots = res.IdleSlots
	s.SingletonSlots = res.SingletonSlots
	s.CollisionSlots = res.CollisionSlots

	cw := float64(e.sc.ContentionWindow)
	for r := range e.rstats {
		cur := &e.rstats[r]
		prev := &st.prevReaders[r]
		rr := &s.Readers[r]
		rr.ID = r
		rr.DeliveredDelta = cur.FramesDelivered - prev.FramesDelivered
		rr.SingletonDelta = cur.SingletonSlots - prev.SingletonSlots
		rr.CollisionDelta = cur.CollisionSlots - prev.CollisionSlots
		rr.Saturation = float64(rr.SingletonDelta+rr.CollisionDelta) / cw
		rr.QueueDepth = e.backlog[r]
		rr.Down, rr.Interference = false, false
		if flt := e.flt; flt != nil {
			rr.Down = flt.down[r]
			rr.Interference = flt.interfUntil[r] != 0
		}
		*prev = *cur
	}

	if f := e.fade; f != nil {
		nr := f.nr
		clear(st.curRate)
		for i := 0; i < t.len(); i++ {
			row := f.rateChunks[i*nr : (i+1)*nr]
			for k, c := range row {
				st.curRate[k] += c
			}
		}
		for k := range st.curRate {
			s.RateChunksDelta[k] = st.curRate[k] - st.prevRate[k]
			st.prevRate[k] = st.curRate[k]
		}
	}

	if s.Round < st.start {
		return nil
	}
	return st.sink(s)
}
