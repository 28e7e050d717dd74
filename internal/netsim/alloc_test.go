package netsim

import (
	"context"
	"sync/atomic"
	"testing"
)

// The engine's round loop must stay allocation-free at steady state —
// the PR 3 property the link-layer allocation budget now mirrors.
// Measuring "per round" directly is impossible from outside (setup
// allocates), so compare whole runs that differ only in round count:
// the extra rounds must contribute zero allocations.
//
// The functions on this path carry //fdlint:noalloc annotations (the
// round phases openRound, arrive, drawSlots, reduceWindows, settle and
// census; runPolicyCell, the serve lanes (serve, bindLane, stepLanes,
// finishFrame) and the shard bodies, serveShard among them;
// streamer.observe): `go run ./cmd/fdlint ./...` names the offending
// construct at the line that would make this test fail.
func TestRoundLoopAllocFree(t *testing.T) {
	adapt := Scenario{
		Name: "alloc-budget-adapt", Tags: 12, Topology: TopologyUniformDisc,
		RadiusM: 12, TxPowerW: 1.0, NoiseW: 1e-8, Rho: 0.9,
		FeedbackSamplesPerBit: 131072, CapacitanceF: 47e-6,
		OfferedLoad: 0.3,
		RateAdapt:   RateAdaptSpec{Adapter: RateAdaptFD, FadeRho: 0.95},
	}
	// Every parallel phase executes here: mobility re-derives links and
	// rate adaptation runs the fading path.
	sharded := Scenario{
		Name: "alloc-budget-sharded", Tags: 96, Topology: TopologyUniformDisc,
		RadiusM: 12, TxPowerW: 1.0, NoiseW: 1e-8, Rho: 0.9,
		FeedbackSamplesPerBit: 131072, CapacitanceF: 47e-6,
		OfferedLoad: 0.3,
		Readers:     ReaderSpec{Count: 4, Placement: ReaderGrid, SpacingM: 10},
		Mobility:    MobilitySpec{Model: MobilityWaypoint, StepM: 1, EpochRounds: 4},
		RateAdapt:   RateAdaptSpec{Adapter: RateAdaptFD, FadeRho: 0.95},
	}
	cases := []struct {
		name string
		sc   Scenario
		// workers is the engine worker count; stream runs through
		// RunStreamOptions with a sink that discards every snapshot.
		workers int
		stream  bool
		// phased runs through RunPhased with a counting clock.
		phased bool
		// tol bounds |extra allocations| over the 200 extra rounds.
		// Sharded helpers park/unpark on the dispatch channel and the
		// WaitGroup semaphore, whose runtime bookkeeping (sudog cache
		// fills, stack growth) shows up as a few one-off global mallocs
		// at unpredictable times. A genuine round-loop allocation would
		// add at least 200.
		tol float64
	}{
		{name: "plain", workers: 1, sc: Scenario{
			Name: "alloc-budget", Tags: 12, Topology: TopologyUniformDisc, RadiusM: 10, OfferedLoad: 0.3,
			Readers: ReaderSpec{Count: 2, Placement: ReaderGrid, SpacingM: 10},
		}},
		// The fading state, adapters and rate histograms are allocated at
		// setup.
		{name: "rateadapt", workers: 1, sc: adapt},
		// The cwnd/RTT/retx columns, the fault masks and the policy grant
		// lists are allocated at setup, retx jitter rides the tags'
		// existing protocol streams through worker scratch, and the fault
		// step's hazard draws come from one source allocated before the
		// loop.
		{name: "congestion-faults", workers: 1, sc: Scenario{
			Name: "alloc-budget-cong", Tags: 24, Topology: TopologyClustered,
			RadiusM: 10, Clusters: 3, CapacitanceF: 47e-6,
			OfferedLoad: 0.8, QueueCap: 32,
			Readers:    ReaderSpec{Count: 2, Placement: ReaderLine, SpacingM: 10, Policy: PolicyPropFair},
			Congestion: CongestionSpec{Controller: CongestionCubic},
			Faults:     FaultSpec{OutageRate: 0.02, InterferenceRate: 0.05, ChurnRate: 0.01},
		}},
		// Worker scratch is allocated at pool start and the dispatch
		// machinery reuses one channel and one WaitGroup.
		{name: "sharded-w2", workers: 2, sc: sharded, tol: 10},
		{name: "sharded-w4", workers: 4, sc: sharded, tol: 10},
		// Above one tag shard, so the ALOHA serve phase splits across
		// both workers and each keeps its own per-cell sums.
		{name: "multishard-w2", workers: 2, tol: 10, sc: Scenario{
			Name: "alloc-budget-multishard", Tags: 2*tagShardLen + 517, Topology: TopologyUniformDisc,
			RadiusM: 12, OfferedLoad: 0.02,
			Readers: ReaderSpec{Count: 4, Placement: ReaderGrid, SpacingM: 10},
		}},
		// The streamer's snapshot and its slices, the rate-histogram
		// delta included, are sized once at init.
		{name: "streamed-rateadapt", workers: 1, stream: true, sc: adapt},
		// The phase accumulator's per-worker rows are sized before the
		// first round; its hooks only add to fixed arrays.
		{name: "phased-w2", workers: 2, phased: true, sc: sharded, tol: 10},
	}
	discard := func(*RoundSnapshot) error { return nil }
	var tick atomic.Int64
	pt := NewPhaseTimes(func() int64 { return tick.Add(1) })
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			measure := func(rounds int) float64 {
				sc := tc.sc
				sc.MaxRounds = rounds
				return testing.AllocsPerRun(5, func() {
					var err error
					switch {
					case tc.stream:
						_, err = RunStreamOptions(context.Background(), sc, 7, StreamOptions{Workers: tc.workers}, discard)
					case tc.phased:
						_, err = RunPhased(sc, 7, tc.workers, pt)
					default:
						_, err = RunParallel(sc, 7, tc.workers)
					}
					if err != nil {
						t.Fatal(err)
					}
				})
			}
			if extra := measure(250) - measure(50); extra > tc.tol || extra < -tc.tol {
				t.Fatalf("200 extra rounds allocated %.1f objects (%.3f/round), want within ±%g; the round loop must not allocate",
					extra, extra/200, tc.tol)
			}
		})
	}
}
