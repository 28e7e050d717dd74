package netsim

// Property tests for the round-end energy settlement and the
// cell-level metrics: invariants that must hold for every scenario and
// seed, checked through a probe observer rather than any one golden
// value.

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/simrand"
)

// probe adapts a per-round check to the engine's roundObserver: the
// check sees the engine after each round's settlement, before the
// round's transmit columns reset, and its error aborts the run. init
// allocates the settled-harvest column, which exists only under a
// probe.
type probe func(e *engine, round int) error

func (probe) init(e *engine) { e.harvest = make([]float64, e.tags.len()) }

func (p probe) observe(e *engine, _ *NetResult, round int) error { return p(e, round) }

// runProbed runs sc at seed on one worker with check observing every
// round.
func runProbed(sc Scenario, seed uint64, check probe) (*NetResult, error) {
	return run(context.Background(), sc, seed, 1, check)
}

// propScenarios is a spread of engine configurations covering closed
// and open loop, every scheduling mode, mobility, and rho = 1 (the
// harshest reflection split).
func propScenarios() []Scenario {
	return []Scenario{
		{Tags: 12, Topology: TopologyUniformDisc, RadiusM: 8,
			OfferedLoad: 0.5, MaxRounds: 60, Rho: 1},
		{Tags: 9, Topology: TopologyGrid, RadiusM: 25, OfferedLoad: 1.5,
			MaxRounds: 80, CapacitanceF: 1e-6, TxEnergyJ: 2e-6},
		{Tags: 16, Topology: TopologyCells, RadiusM: 10, ClusterSpreadM: 2,
			Readers:      ReaderSpec{Count: 4, Placement: ReaderGrid, SpacingM: 8},
			FramesPerTag: 6, MaxRounds: 80},
		{Tags: 10, Topology: TopologyCells, RadiusM: 12, ClusterSpreadM: 2,
			Readers:     ReaderSpec{Count: 2, Placement: ReaderLine, SpacingM: 14, Scheduling: SchedulingTDM},
			OfferedLoad: 0.4, MaxRounds: 96, Rho: 1,
			Mobility: MobilitySpec{Model: MobilityWaypoint, StepM: 2, EpochRounds: 3}},
	}
}

func TestEnergySettlementInvariants(t *testing.T) {
	for si, sc := range propScenarios() {
		for seed := uint64(1); seed <= 4; seed++ {
			prevAlive := make([]bool, sc.Tags)
			for i := range prevAlive {
				prevAlive[i] = true
			}
			_, err := runProbed(sc, seed, func(e *engine, round int) error {
				tg, dt := &e.tags, e.settleDt
				if dt <= 0 {
					return fmt.Errorf("round %d settled over non-positive dt %g", round, dt)
				}
				for i := range tg.alive {
					// A tag transmits at most once per round inside its
					// reader's window, and the wall clock is the longest
					// active window: transmit time can never exceed it.
					if tg.txDt[i] > dt+1e-12 {
						return fmt.Errorf("round %d tag %d: txDt %g exceeds round dt %g", round, i, tg.txDt[i], dt)
					}
					// The rho/2 Manchester-duty reflection loss removes at
					// most half the incident power even at rho = 1: the
					// harvest input stays physical.
					if e.harvest[i] < 0 {
						return fmt.Errorf("round %d tag %d: negative harvest power %g", round, i, e.harvest[i])
					}
					// Brown-out death is latched: once a tag dies it stays
					// dead for the rest of the run.
					if !prevAlive[i] && tg.alive[i] {
						return fmt.Errorf("round %d tag %d: revived after brown-out", round, i)
					}
					prevAlive[i] = tg.alive[i]
				}
				return nil
			})
			if err != nil {
				t.Fatalf("scenario %d seed %d: %v", si, seed, err)
			}
		}
	}
}

func TestMetricBoundsAcrossSeeds(t *testing.T) {
	for si, sc := range propScenarios() {
		for seed := uint64(1); seed <= 4; seed++ {
			res, err := Run(sc, seed)
			if err != nil {
				t.Fatalf("scenario %d seed %d: %v", si, seed, err)
			}
			ctx := fmt.Sprintf("scenario %d seed %d", si, seed)
			if d := res.DeliveryRate(); d < 0 || d > 1 {
				t.Fatalf("%s: delivery rate %g outside [0, 1]", ctx, d)
			}
			n := float64(len(res.Tags))
			if f := res.FairnessIndex(); f != 0 && (f < 1/n-1e-12 || f > 1+1e-12) {
				t.Fatalf("%s: fairness %g outside {0} union [1/N, 1]", ctx, f)
			}
			if res.FramesDelivered > res.FramesOffered {
				t.Fatalf("%s: delivered %d exceeds offered %d", ctx, res.FramesDelivered, res.FramesOffered)
			}
			for _, tag := range res.Tags {
				if tag.OutageFraction < 0 || tag.OutageFraction > 1 {
					t.Fatalf("%s tag %d: outage %g outside [0, 1]", ctx, tag.ID, tag.OutageFraction)
				}
				if tag.LifetimeS < 0 || tag.LifetimeS > res.SimulatedS+1e-9 {
					t.Fatalf("%s tag %d: lifetime %g outside [0, %g]", ctx, tag.ID, tag.LifetimeS, res.SimulatedS)
				}
				if tag.Alive && tag.LifetimeS != res.SimulatedS {
					t.Fatalf("%s tag %d: survivor lifetime %g != horizon %g", ctx, tag.ID, tag.LifetimeS, res.SimulatedS)
				}
			}
		}
	}
}

func TestMetricEdgeCases(t *testing.T) {
	var empty NetResult
	if empty.FairnessIndex() != 0 || empty.DeliveryRate() != 0 || empty.Throughput() != 0 ||
		empty.CollisionFraction() != 0 || empty.AliveFraction() != 0 ||
		empty.MeanLifetimeS() != 0 || empty.MeanSNRdB() != 0 {
		t.Fatal("zero-value NetResult must report zero for every metric")
	}

	// No delivery at all: fairness is 0 (no service to be fair about),
	// not NaN and not 1.
	starved := NetResult{Tags: []TagStats{{}, {}, {}}, FramesOffered: 9}
	if f := starved.FairnessIndex(); f != 0 {
		t.Fatalf("all-zero delivery fairness = %g, want 0", f)
	}
	if d := starved.DeliveryRate(); d != 0 {
		t.Fatalf("all-zero delivery rate = %g, want 0", d)
	}

	single := NetResult{Tags: []TagStats{{FramesDelivered: 7}}}
	if f := single.FairnessIndex(); f != 1 {
		t.Fatalf("single-tag fairness = %g, want 1", f)
	}

	equal := NetResult{Tags: []TagStats{{FramesDelivered: 3}, {FramesDelivered: 3}, {FramesDelivered: 3}, {FramesDelivered: 3}}}
	if f := equal.FairnessIndex(); f < 1-1e-12 || f > 1+1e-12 {
		t.Fatalf("equal-service fairness = %g, want 1", f)
	}

	hog := NetResult{Tags: []TagStats{{FramesDelivered: 12}, {}, {}, {}}}
	if f := hog.FairnessIndex(); f < 0.25-1e-12 || f > 0.25+1e-12 {
		t.Fatalf("one-tag-takes-all fairness = %g, want 1/4", f)
	}
}

// slotTally sums, over every round and open cell, what an ALOHA window
// should show given its contender count: n contenders drawing slots
// uniformly from m leave a slot idle with probability (1-1/m)^n and a
// singleton with probability (n/m)(1-1/m)^(n-1). It also sums the
// variances of the idle and singleton counts and their covariance,
// from the joint probabilities of two distinct slots; windows draw
// independently given their contender counts, so the sums are the
// variances of the run's totals.
type slotTally struct {
	slots, idle, single float64
	varIdle, varSingle  float64
	cov                 float64
}

func (s *slotTally) add(n, m float64) {
	s.slots += m
	if n == 0 {
		s.idle += m
		return
	}
	q1, q2 := 1-1/m, 1-2/m
	pairs := m * (m - 1)
	eI := m * math.Pow(q1, n)
	eS := n * math.Pow(q1, n-1)
	s.idle += eI
	s.single += eS
	s.varIdle += eI - eI*eI + pairs*math.Pow(q2, n)
	vS := eS - eS*eS
	if n >= 2 {
		vS += pairs * n * (n - 1) / (m * m) * math.Pow(q2, n-2)
	}
	s.varSingle += vS
	s.cov += pairs*(n/m)*math.Pow(q2, n-1) - eI*eS
}

// TestSlotOccupancyOracle checks the slot classes drawSlots counts
// against the closed form above: a probe sums the expected idle and
// singleton counts from each round's recorded contender counts, and
// the run's IdleSlots, SingletonSlots and CollisionSlots must each land
// within 5 sigma of their sums. It covers every ALOHA preset (million
// at 2^14 tags), the TDM stress scenario and every ALOHA example
// scenario.
func TestSlotOccupancyOracle(t *testing.T) {
	scs := goldenScenarios(t)
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range examples {
		sc, err := LoadScenario(path)
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, sc)
	}
	seen := make(map[string]bool)
	for _, sc := range scs {
		sc.ApplyDefaults()
		if sc.Readers.Policy != PolicyAloha || seen[sc.Name] {
			continue
		}
		seen[sc.Name] = true
		var tally slotTally
		res, err := runProbed(sc, 1, func(e *engine, _ int) error {
			m := float64(e.sc.ContentionWindow)
			for ci := range e.activeCells {
				tally.add(float64(e.cellContenders[ci]), m)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		coll := tally.slots - tally.idle - tally.single
		for _, c := range []struct {
			what     string
			got      int64
			want, vr float64
		}{
			{"idle", res.IdleSlots, tally.idle, tally.varIdle},
			{"singleton", res.SingletonSlots, tally.single, tally.varSingle},
			{"collision", res.CollisionSlots, coll, tally.varIdle + tally.varSingle + 2*tally.cov},
		} {
			// Half a slot of slack absorbs rounding in the sums where
			// every window is deterministic (zero variance).
			tol := 5*math.Sqrt(max(c.vr, 0)) + 0.5
			if d := float64(c.got) - c.want; math.Abs(d) > tol {
				t.Errorf("%s: %d %s slots, closed form %.1f ± %.1f (5 sigma)", sc.Name, c.got, c.what, c.want, tol)
			}
		}
	}
}

// TestDrawSlotsClassifiesExactly recounts each open cell's slot
// histogram from slotChoice and contends right after drawSlots, and
// checks what drawSlots took from its once/many bitsets against it: the
// cell's idle, singleton and collision slots, collision bytes and base
// byte-time, and the reader's slot counters. The windows straddle word
// boundaries (1, 63, 64, 65 and 200 slots), so partial last words are
// exercised, and every slot class must turn up.
func TestDrawSlotsClassifiesExactly(t *testing.T) {
	for _, cw := range []int{1, 63, 64, 65, 200} {
		sc := Scenario{
			Name: fmt.Sprintf("slot-classes-cw%d", cw), Tags: 3*cw + 9,
			Topology: TopologyUniformDisc, RadiusM: 12,
			Readers:     ReaderSpec{Count: 3, Placement: ReaderLine, SpacingM: 8},
			OfferedLoad: 0.3, ContentionWindow: cw,
		}
		sc.ApplyDefaults()
		if err := sc.Validate(); err != nil {
			t.Fatal(err)
		}
		root := simrand.New(5)
		placeSrc, trafficSrc, slotSrc, mobilitySrc := root.Split(), root.Split(), root.Split(), root.Split()
		e, err := newEngine(sc, 5, 1, root, placeSrc, mobilitySrc, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := &NetResult{}
		count := make([]int, cw)
		prev := make([]ReaderStats, len(e.rstats))
		var seen cellAcc
		for round := 0; round < 40; round++ {
			e.curRound = round
			e.openRound(nil)
			e.arrive(trafficSrc)
			copy(prev, e.rstats)
			e.drawSlots(slotSrc)
			for ci, r := range e.activeCells {
				clear(count)
				for _, i := range e.cellTags(int(r)) {
					if e.contends(i) {
						count[e.slotChoice[i]]++
					}
				}
				var want cellAcc
				for _, c := range count {
					switch c {
					case 0:
						want.idleSlots++
					case 1:
						want.singletonSlots++
					default:
						want.collisionSlots++
					}
				}
				want.collisionBytes = want.collisionSlots * e.collisionCost
				want.windowBytes = want.idleSlots*e.chunkAir + want.collisionBytes
				if got := e.cellAcc[ci]; got != want {
					t.Fatalf("cw %d round %d cell %d: drawSlots classified %+v, histogram says %+v", cw, round, r, got, want)
				}
				rs, was := e.rstats[r], prev[r]
				if rs.SingletonSlots-was.SingletonSlots != want.singletonSlots || rs.CollisionSlots-was.CollisionSlots != want.collisionSlots {
					t.Fatalf("cw %d round %d reader %d: slot counters moved by %d/%d, histogram says %d/%d", cw, round, r,
						rs.SingletonSlots-was.SingletonSlots, rs.CollisionSlots-was.CollisionSlots, want.singletonSlots, want.collisionSlots)
				}
				seen.idleSlots += want.idleSlots
				seen.singletonSlots += want.singletonSlots
				seen.collisionSlots += want.collisionSlots
			}
			e.pool.dispatch(phaseServe)
			e.settle(res, e.reduceWindows(res))
			clear(e.tags.txCount)
			clear(e.tags.txDt)
		}
		e.pool.stop()
		if seen.idleSlots == 0 || seen.singletonSlots == 0 || seen.collisionSlots == 0 {
			t.Fatalf("cw %d: slot classes idle/singleton/collision seen %d/%d/%d, want all three", cw,
				seen.idleSlots, seen.singletonSlots, seen.collisionSlots)
		}
	}
}
