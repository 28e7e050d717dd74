package netsim

// Property tests for the closed-loop congestion controller, the reader
// scheduling policies and the fault-injection layer: invariants checked
// through a probe observer across scenarios and seeds, plus the
// worker-count reflection the determinism contract demands.

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
)

// congScenarios spreads congestion-controlled configurations across
// open and closed loop, every scheduling policy, and fault hazards.
func congScenarios() []Scenario {
	return []Scenario{
		{Tags: 16, Topology: TopologyClustered, RadiusM: 8, Clusters: 3,
			OfferedLoad: 1.0, MaxRounds: 80, QueueCap: 12, CapacitanceF: 47e-6,
			Readers:    ReaderSpec{Count: 2, Placement: ReaderLine, SpacingM: 8},
			Congestion: CongestionSpec{Controller: CongestionCubic}},
		{Tags: 12, Topology: TopologyGrid, RadiusM: 6,
			FramesPerTag: 8, MaxRounds: 96, CapacitanceF: 47e-6,
			Readers:    ReaderSpec{Count: 2, Placement: ReaderGrid, SpacingM: 6, Policy: PolicyFIFO},
			Congestion: CongestionSpec{Controller: CongestionCubic, RTOMinRounds: 3, RetxCap: 4}},
		{Tags: 20, Topology: TopologyCells, RadiusM: 10, ClusterSpreadM: 2,
			OfferedLoad: 0.6, MaxRounds: 96, CapacitanceF: 47e-6,
			Readers:    ReaderSpec{Count: 4, Placement: ReaderGrid, SpacingM: 8, Policy: PolicyPropFair},
			Congestion: CongestionSpec{Controller: CongestionCubic},
			Faults:     FaultSpec{OutageRate: 0.03, InterferenceRate: 0.04, ChurnRate: 0.01}},
		{Tags: 10, Topology: TopologyUniformDisc, RadiusM: 8,
			OfferedLoad: 0.8, MaxRounds: 80, CapacitanceF: 47e-6,
			Readers:    ReaderSpec{Count: 2, Placement: ReaderLine, SpacingM: 10, Policy: PolicyDeadline, DeadlineRounds: 12},
			Congestion: CongestionSpec{Controller: CongestionCubic, JitterFrac: -1}},
	}
}

// TestCongestionWindowBounds checks the controller's hard clamps every
// round: cwnd in [1, QueueCap], RTO in [RTOMinRounds, RTOMaxRounds]
// even under zero-variance RTT, backoff within its exponent cap, and
// the retransmission queue within its bound.
func TestCongestionWindowBounds(t *testing.T) {
	for si, sc := range congScenarios() {
		for seed := uint64(1); seed <= 3; seed++ {
			_, err := runProbed(sc, seed, func(e *engine, round int) error {
				c := e.cong
				for i := range c.cwnd {
					if c.cwnd[i] < 1 || c.cwnd[i] > c.queueCap {
						return fmt.Errorf("round %d tag %d: cwnd %g outside [1, %g]", round, i, c.cwnd[i], c.queueCap)
					}
					if c.rto[i] < c.rtoMin || c.rto[i] > c.rtoMax {
						return fmt.Errorf("round %d tag %d: rto %g outside [%g, %g]", round, i, c.rto[i], c.rtoMin, c.rtoMax)
					}
					if c.backoff[i] > c.maxBackoff {
						return fmt.Errorf("round %d tag %d: backoff %d beyond cap %d", round, i, c.backoff[i], c.maxBackoff)
					}
					if c.retxQ[i] < 0 || c.retxQ[i] > c.retxCap {
						return fmt.Errorf("round %d tag %d: retx queue %d outside [0, %d]", round, i, c.retxQ[i], c.retxCap)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("scenario %d seed %d: %v", si, seed, err)
			}
		}
	}
}

// conservationCase is one TestCongestionConservation input: a scenario,
// the seeds it runs at, and whether it is a single-tag run that must
// never collide.
type conservationCase struct {
	name   string
	sc     Scenario
	seeds  uint64
	single bool
}

// conservationCases spans the engine: the property and congestion
// scenarios, every preset (million at 2^12 tags), every shipped example
// scenario, a fault mix of churn, scheduled and stochastic outages and
// interference without congestion control, and every preset forced to
// a single tag.
func conservationCases(t *testing.T) []conservationCase {
	t.Helper()
	var out []conservationCase
	for i, sc := range propScenarios() {
		out = append(out, conservationCase{name: fmt.Sprintf("prop-%d", i), sc: sc, seeds: 3})
	}
	for i, sc := range congScenarios() {
		out = append(out, conservationCase{name: fmt.Sprintf("cong-%d", i), sc: sc, seeds: 3})
	}
	for _, name := range PresetNames() {
		sc, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == "million" {
			sc.Tags = 1 << 12
		}
		out = append(out, conservationCase{name: name, sc: sc, seeds: 3})
		sc.Tags = 1
		out = append(out, conservationCase{name: name + "-single", sc: sc, seeds: 5, single: true})
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example scenarios found (%v)", err)
	}
	for _, p := range paths {
		sc, err := LoadScenario(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, conservationCase{name: filepath.Base(p), sc: sc, seeds: 3})
	}
	out = append(out, conservationCase{name: "fault-mix", seeds: 3, sc: Scenario{
		Tags: 24, Topology: TopologyCells, RadiusM: 10, ClusterSpreadM: 2,
		OfferedLoad: 0.7, MaxRounds: 120, QueueCap: 10, CapacitanceF: 47e-6,
		Readers: ReaderSpec{Count: 3, Placement: ReaderLine, SpacingM: 8},
		Faults: FaultSpec{
			Events: []FaultEvent{
				{Round: 10, Kind: FaultReaderOutage, Reader: 1, Rounds: 30},
				{Round: 20, Kind: FaultInterference, Reader: 0, Rounds: 15, LossProb: 0.6},
			},
			OutageRate: 0.01, InterferenceRate: 0.03, ChurnRate: 0.02,
		},
	}})
	return out
}

// TestCongestionConservation checks that no layer of the engine — the
// retransmission machinery, churn flushes, deadline drops, outages —
// double-delivers or leaks a frame: at every round's settlement, each
// tag's offered frames are exactly the delivered plus dropped plus the
// transmit-queue and retx-queue residents. At the end the run totals
// obey the same conservation (residuals through the per-reader
// QueueDepth), the per-reader delivered frames and busy slots sum to
// the run totals, and a lone tag never collides.
func TestCongestionConservation(t *testing.T) {
	for _, cc := range conservationCases(t) {
		for seed := uint64(1); seed <= cc.seeds; seed++ {
			res, err := runProbed(cc.sc, seed, func(e *engine, round int) error {
				tg := &e.tags
				for i := range tg.stats {
					ts := &tg.stats[i]
					held := int(tg.queue[i])
					if e.cong != nil {
						held += int(e.cong.retxQ[i])
					}
					if ts.FramesOffered != ts.FramesDelivered+ts.FramesDropped+held {
						return fmt.Errorf("round %d tag %d: offered %d != delivered %d + dropped %d + held %d",
							round, i, ts.FramesOffered, ts.FramesDelivered, ts.FramesDropped, held)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", cc.name, seed, err)
			}
			var held, delivered, busy int64
			for _, rs := range res.Readers {
				held += rs.QueueDepth
				delivered += int64(rs.FramesDelivered)
				busy += rs.SingletonSlots + rs.CollisionSlots
			}
			if res.FramesOffered != res.FramesDelivered+res.FramesDropped+held {
				t.Fatalf("%s seed %d: totals offered %d != delivered %d + dropped %d + held %d",
					cc.name, seed, res.FramesOffered, res.FramesDelivered, res.FramesDropped, held)
			}
			if delivered != res.FramesDelivered {
				t.Fatalf("%s seed %d: per-reader delivered sums to %d, run total %d", cc.name, seed, delivered, res.FramesDelivered)
			}
			if want := res.SingletonSlots + res.CollisionSlots; busy != want {
				t.Fatalf("%s seed %d: per-reader busy slots sum to %d, run total %d", cc.name, seed, busy, want)
			}
			if cc.single && res.CollisionSlots != 0 {
				t.Fatalf("%s seed %d: a lone tag collided in %d slots", cc.name, seed, res.CollisionSlots)
			}
		}
	}
}

// TestRTOFloorUnderZeroVariance pins the Jacobson floor: a lone tag on
// a clean short link delivers every frame in one round, so the RTT
// samples are identically 1, RTTVAR decays toward zero, and without the
// clamp the RTO would collapse to the sample itself. It must instead
// hold at RTOMinRounds.
func TestRTOFloorUnderZeroVariance(t *testing.T) {
	sc := Scenario{
		Tags: 1, Topology: TopologyGrid, RadiusM: 0.5,
		OfferedLoad: 0.5, MaxRounds: 96, CapacitanceF: 47e-6,
		Congestion: CongestionSpec{Controller: CongestionCubic},
	}
	var sawSample bool
	res, err := runProbed(sc, 3, func(e *engine, round int) error {
		c := e.cong
		if c.srtt[0] > 0 {
			sawSample = true
			if c.rto[0] < c.rtoMin {
				return fmt.Errorf("round %d: rto %g collapsed below floor %g (srtt %g, rttvar %g)",
					round, c.rto[0], c.rtoMin, c.srtt[0], c.rttvar[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawSample {
		t.Fatal("the lone tag never took an RTT sample; the floor was not exercised")
	}
	if res.Tags[0].SRTTRounds <= 0 || res.Tags[0].SRTTRounds > 2 {
		t.Fatalf("clean one-round service should settle SRTT near 1, got %g", res.Tags[0].SRTTRounds)
	}
}

// TestFaultOutageShardingInvariance runs the outage-retail preset — a
// scheduled reader outage with re-association, recovery, and an
// interference burst — at 1 and 8 workers and demands byte-identical
// results, plus sane fault bookkeeping: the dark reader logs exactly
// its scheduled outage rounds and the cell recovers (its tags deliver
// after the carrier returns).
func TestFaultOutageShardingInvariance(t *testing.T) {
	sc, err := Preset("outage-retail")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunParallel(sc, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunParallel(sc, 11, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatal("outage-retail diverged between 1 and 8 workers; fault injection broke the determinism contract")
	}
	if got := r1.Readers[1].OutageRounds; got != 40 {
		t.Fatalf("reader 1 logged %d outage rounds, want the scheduled 40", got)
	}
	if got := r1.Readers[2].InterferenceRounds; got != 24 {
		t.Fatalf("reader 2 logged %d interference rounds, want the scheduled 24", got)
	}
	if r1.Timeouts == 0 {
		t.Fatal("a 40-round outage under congestion control should fire at least one RTO")
	}
	if r1.Readers[1].FramesDelivered == 0 {
		t.Fatal("reader 1 delivered nothing; the cell never recovered from its outage")
	}
}

// TestCongestedDockShardingInvariance does the same reflection for the
// congestion showcase preset — proportional-fair polling with cubic
// windows riding the collapse knee.
func TestCongestedDockShardingInvariance(t *testing.T) {
	sc, err := Preset("congested-dock")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunParallel(sc, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	r6, err := RunParallel(sc, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r6) {
		t.Fatal("congested-dock diverged between 1 and 6 workers")
	}
	if r1.Timeouts == 0 || r1.Retransmissions == 0 {
		t.Fatalf("an overloaded dock should exercise the RTO/retx machinery (timeouts %d, retx %d)",
			r1.Timeouts, r1.Retransmissions)
	}
	if r1.MeanCwnd() <= 0 {
		t.Fatalf("mean cwnd %g must be positive with the controller on", r1.MeanCwnd())
	}
}

// TestCongestionSpecValidation exercises the orphan-field and bounds
// rejections of the new specs.
func TestCongestionSpecValidation(t *testing.T) {
	bad := []Scenario{
		{Tags: 4, Congestion: CongestionSpec{Beta: 0.5}},                                                   // orphan knob, no controller
		{Tags: 4, Congestion: CongestionSpec{Controller: "reno"}},                                          // unknown controller
		{Tags: 4, Congestion: CongestionSpec{Controller: CongestionCubic, Beta: 1.5}},                      // beta out of range
		{Tags: 4, Readers: ReaderSpec{Policy: "round-robin"}},                                              // unknown policy
		{Tags: 4, Readers: ReaderSpec{Policy: PolicyFIFO, DeadlineRounds: 8}},                              // deadline knob without deadline policy
		{Tags: 4, Faults: FaultSpec{Events: []FaultEvent{{Round: 1, Kind: "meteor"}}}},                     // unknown fault kind
		{Tags: 4, Faults: FaultSpec{Events: []FaultEvent{{Round: 0, Kind: FaultReaderOutage}}}},            // round is 1-based
		{Tags: 4, Faults: FaultSpec{Events: []FaultEvent{{Round: 1, Kind: FaultReaderOutage, Reader: 3}}}}, // reader out of range
		{Tags: 4, Faults: FaultSpec{OutageRate: 1.5}},                                                      // probability out of range
		// Round counts past the int32 the engine counts rounds in.
		{Tags: 4, Faults: FaultSpec{OutageRate: 0.05, OutageRounds: pastInt32()}},
		{Tags: 4, Faults: FaultSpec{InterferenceRate: 0.05, InterferenceRounds: pastInt32()}},
		{Tags: 4, Faults: FaultSpec{ChurnRate: 0.05, ChurnRounds: pastInt32()}},
		{Tags: 4, Readers: ReaderSpec{Policy: PolicyDeadline, DeadlineRounds: pastInt32()}},
	}
	for i, sc := range bad {
		sc.ApplyDefaults()
		if err := sc.Validate(); err == nil {
			t.Fatalf("bad scenario %d validated", i)
		}
	}
}
