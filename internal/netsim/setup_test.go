package netsim

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/simrand"
)

// stagedScenario spans three tag shards, so the set-up tasks, the
// sharded init and the drain all split across workers.
func stagedScenario(topology string) Scenario {
	return Scenario{
		Name: "staged-" + topology, Tags: 2*tagShardLen + 517, Topology: topology,
		RadiusM: 20, Clusters: 4, OfferedLoad: 0.05, MaxRounds: 9,
		Readers:  ReaderSpec{Count: 4, Placement: ReaderGrid, SpacingM: 10},
		Mobility: MobilitySpec{Model: MobilityWaypoint, StepM: 1.5, EpochRounds: 3},
	}
}

// TestStagedSetupMatchesSerial holds the set-up phase and the sharded
// polar conversion to the serial draws they replace, bit for bit: the
// positions to PlaceTags on the same placement stream, and the initial
// waypoints to the walk's own per-tag draw on the same mobility
// stream, for every topology and worker count.
func TestStagedSetupMatchesSerial(t *testing.T) {
	same := func(a, b Position) bool {
		return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
	}
	for _, topo := range []string{TopologyUniformDisc, TopologyGrid, TopologyClustered, TopologyCells} {
		for _, workers := range []int{1, 3} {
			sc := stagedScenario(topo)
			sc.ApplyDefaults()
			e := newTestEngine(t, sc, 4, workers)
			e.pool.stop()

			root := simrand.New(4)
			placeSrc, _, _, mobilitySrc := root.Split(), root.Split(), root.Split(), root.Split()
			want, err := PlaceTags(sc.Topology, sc.Tags, sc.RadiusM, sc.Clusters, sc.ClusterSpreadM, e.readers, placeSrc)
			if err != nil {
				t.Fatal(err)
			}
			serial := &waypointWalk{radius: sc.RadiusM, step: sc.Mobility.StepM, src: mobilitySrc}
			for i := range want {
				if !same(e.tags.pos[i], want[i]) {
					t.Fatalf("%s w%d: tag %d placed at %v, PlaceTags says %v", topo, workers, i, e.tags.pos[i], want[i])
				}
				if w := serial.draw(); !same(e.walk.waypoints[i], w) {
					t.Fatalf("%s w%d: tag %d's first waypoint %v, serial draw %v", topo, workers, i, e.walk.waypoints[i], w)
				}
			}
		}
	}
}

// censusProbe records the census after every round; the last record is
// what the drain must fold to.
type censusProbe struct {
	offered, delivered, dropped int64
	backlog                     []int64
}

func (p *censusProbe) init(*engine) {}

func (p *censusProbe) observe(e *engine, _ *NetResult, _ int) error {
	p.offered, p.delivered, p.dropped, _ = e.census()
	p.backlog = append(p.backlog[:0], e.backlog...)
	return nil
}

// TestDrainFoldMatchesCensus checks the drain's per-worker sums against
// a census walk of the final round and against the per-tag rows: the
// frame totals, each reader's stranded backlog (retx-parked frames
// included under congestion control) and the adaptation counters.
func TestDrainFoldMatchesCensus(t *testing.T) {
	cong := stagedScenario(TopologyClustered)
	cong.Name, cong.OfferedLoad, cong.QueueCap = "drain-cong", 0.6, 8
	cong.Congestion = CongestionSpec{Controller: CongestionCubic}
	cong.Faults = FaultSpec{ChurnRate: 0.01}
	adapt := stagedScenario(TopologyUniformDisc)
	adapt.Name, adapt.OfferedLoad, adapt.FramesPerTag = "drain-adapt", 0, 2
	adapt.RateAdapt = RateAdaptSpec{Adapter: RateAdaptFD, FadeRho: 0.9}
	for _, sc := range []Scenario{cong, adapt} {
		for _, workers := range []int{1, 2} {
			p := &censusProbe{}
			res, err := run(context.Background(), sc, 6, workers, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.FramesOffered != p.offered || res.FramesDelivered != p.delivered || res.FramesDropped != p.dropped {
				t.Fatalf("%s w%d: drain folded %d/%d/%d offered/delivered/dropped, census %d/%d/%d", sc.Name, workers,
					res.FramesOffered, res.FramesDelivered, res.FramesDropped, p.offered, p.delivered, p.dropped)
			}
			backlog := int64(0)
			for r, rs := range res.Readers {
				if rs.QueueDepth != p.backlog[r] {
					t.Fatalf("%s w%d: reader %d backlog %d, census %d", sc.Name, workers, r, rs.QueueDepth, p.backlog[r])
				}
				backlog += rs.QueueDepth
			}
			var switches, chunks, lag int64
			for _, ts := range res.Tags {
				switches += ts.RateSwitches
				chunks += ts.AdaptChunks
				lag += ts.AdaptLagChunks
			}
			if res.RateSwitches != switches || res.AdaptChunks != chunks || res.AdaptLagChunks != lag {
				t.Fatalf("%s w%d: adaptation totals %d/%d/%d, per-tag sums %d/%d/%d", sc.Name, workers,
					res.RateSwitches, res.AdaptChunks, res.AdaptLagChunks, switches, chunks, lag)
			}
			if backlog == 0 && sc.Congestion.enabled() {
				t.Fatalf("%s w%d: no stranded backlog, so the backlog fold went untested", sc.Name, workers)
			}
		}
	}
}

// TestPhaseTimes runs a phased run on a counting clock: the result must
// equal the unphased run's, each phase the run enters must be counted
// and accumulate time, and the table must list every phase.
func TestPhaseTimes(t *testing.T) {
	sc := stagedScenario(TopologyUniformDisc)
	sc.RateAdapt = RateAdaptSpec{Adapter: RateAdaptFD, FadeRho: 0.9}
	const workers = 2
	want, err := RunParallel(sc, 3, workers)
	if err != nil {
		t.Fatal(err)
	}
	var tick atomic.Int64
	p := NewPhaseTimes(func() int64 { return tick.Add(1) })
	got, err := RunPhased(sc, 3, workers, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a phased run's result differs from RunParallel's")
	}
	if p.rounds != got.Rounds {
		t.Fatalf("phase table counted %d rounds, the run %d", p.rounds, got.Rounds)
	}
	// The run's own switches read the clock once each; the workers'
	// busy-time reads come on top, so the sum is bounded by the ticks.
	if total := p.total(); total <= 0 || total >= tick.Load() {
		t.Fatalf("phase sum %d ticks, clock read %d times", total, tick.Load())
	}
	epochs := (got.Rounds + sc.Mobility.EpochRounds - 1) / sc.Mobility.EpochRounds
	for _, c := range []struct {
		ph   phaseKind
		want int64
	}{
		{phaseSetup, 1}, {phaseInit, 1}, {phaseDerive, int64(epochs)}, {phaseWalk, int64(epochs - 1)},
		{phaseContend, int64(got.Rounds)}, {phaseServe, int64(got.Rounds)}, {phaseDrain, 1}, {phaseFold, 1},
	} {
		if p.calls[c.ph] != c.want {
			t.Errorf("phase %s entered %d times, want %d", phaseNames[c.ph], p.calls[c.ph], c.want)
		}
		if p.ns[c.ph] <= 0 {
			t.Errorf("phase %s accumulated no time", phaseNames[c.ph])
		}
	}
	if len(p.busy) != workers || p.busy[0][phaseSetup] <= 0 {
		t.Errorf("busy rows %v: want one per worker, with the set-up phase's time", p.busy)
	}
	var b bytes.Buffer
	if err := p.WriteTable(&b, p.total()); err != nil {
		t.Fatal(err)
	}
	for _, ph := range phaseOrder {
		if name := phaseNames[ph]; !strings.Contains(b.String(), "\n"+name+" ") {
			t.Errorf("table lists no %q row:\n%s", name, b.String())
		}
	}
	if !strings.Contains(b.String(), "phases cover 100.0%") {
		t.Errorf("table's coverage line is missing or wrong:\n%s", b.String())
	}
}
