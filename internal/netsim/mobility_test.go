package netsim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/simrand"
)

// newTestWalk is newWaypointWalk with its waypoints converted, as the
// engine's init phase converts them.
func newTestWalk(n int, radius, step float64, src *simrand.Source) *waypointWalk {
	w := newWaypointWalk(n, radius, step, src)
	polarToXY(w.waypoints)
	return w
}

// advance moves every walker one step and redraws the arrivals'
// targets, as an epoch boundary does.
func advance(w *waypointWalk, pos []Position) {
	arrived := make([]uint64, (len(pos)+63)/64)
	w.move(pos, 0, len(pos), arrived)
	w.redraw(arrived)
}

func TestWaypointWalkStepsTowardTarget(t *testing.T) {
	w := newTestWalk(1, 10, 0.5, simrand.New(4))
	pos := []Position{{X: 3, Y: -2}}
	for i := 0; i < 200; i++ {
		before := pos[0]
		target := w.waypoints[0]
		dBefore := math.Hypot(target.X-before.X, target.Y-before.Y)
		advance(w, pos)
		moved := math.Hypot(pos[0].X-before.X, pos[0].Y-before.Y)
		if moved > 0.5+1e-9 {
			t.Fatalf("step %d moved %g, beyond the 0.5 m step", i, moved)
		}
		if dBefore > 0.5 {
			dAfter := math.Hypot(target.X-pos[0].X, target.Y-pos[0].Y)
			if dAfter >= dBefore {
				t.Fatalf("step %d moved away from the waypoint: %g -> %g", i, dBefore, dAfter)
			}
		}
		if d := pos[0].Distance(); d > 10+1e-9 {
			t.Fatalf("step %d left the deployment disc: distance %g", i, d)
		}
	}
}

func TestWaypointWalkDeterministic(t *testing.T) {
	mk := func() []Position {
		w := newTestWalk(6, 8, 1, simrand.New(9))
		pos := make([]Position, 6)
		for i := range pos {
			pos[i] = Position{X: float64(i), Y: 0}
		}
		for e := 0; e < 50; e++ {
			advance(w, pos)
		}
		return pos
	}
	if a, b := mk(), mk(); !reflect.DeepEqual(a, b) {
		t.Fatal("waypoint walk depends on more than the seed")
	}
}

func TestMobilityMovesTagsAndRederivesLinks(t *testing.T) {
	static := Scenario{
		Tags: 12, Topology: TopologyUniformDisc, RadiusM: 40,
		OfferedLoad: 0.4, MaxRounds: 120,
	}
	mobile := static
	mobile.Mobility = MobilitySpec{Model: MobilityWaypoint, StepM: 3, EpochRounds: 4}
	rs, err := Run(static, 31)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Run(mobile, 31)
	if err != nil {
		t.Fatal(err)
	}
	movedTags, movedSNR := 0, 0
	for i := range rs.Tags {
		if rs.Tags[i].X != rm.Tags[i].X || rs.Tags[i].Y != rm.Tags[i].Y {
			movedTags++
		}
		if rs.Tags[i].SNRdB != rm.Tags[i].SNRdB {
			movedSNR++
		}
		if d := math.Hypot(rm.Tags[i].X, rm.Tags[i].Y); d > static.RadiusM+1e-9 {
			t.Fatalf("mobile tag %d ended outside the disc at distance %g", i, d)
		}
	}
	if movedTags < len(rs.Tags)/2 {
		t.Fatalf("waypoint drift barely moved anyone: %d of %d tags", movedTags, len(rs.Tags))
	}
	// The link qualities must track the moved geometry, not the initial
	// placement: SNR (and the cliff-derived loss) re-derive each epoch.
	if movedSNR < len(rs.Tags)/2 {
		t.Fatalf("mobility did not re-derive link quality: %d of %d SNRs changed", movedSNR, len(rs.Tags))
	}
}

func TestMobilityHandsOverBetweenReaders(t *testing.T) {
	sc := Scenario{
		Tags: 24, Topology: TopologyUniformDisc, RadiusM: 18,
		Readers:     ReaderSpec{Count: 2, Placement: ReaderLine, SpacingM: 20},
		OfferedLoad: 0.3, MaxRounds: 200,
		Mobility: MobilitySpec{Model: MobilityWaypoint, StepM: 4, EpochRounds: 4},
	}
	static := sc
	static.Mobility = MobilitySpec{}
	rm, err := Run(sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(static, 3)
	if err != nil {
		t.Fatal(err)
	}
	handovers := 0
	for i := range rm.Tags {
		if rm.Tags[i].Reader != rs.Tags[i].Reader {
			handovers++
		}
	}
	if handovers == 0 {
		t.Fatal("4 m/epoch drift across a 20 m reader baseline produced no handover")
	}
}

func TestMobileFleetPresetRuns(t *testing.T) {
	sc, err := Preset("mobile-fleet")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesDelivered == 0 {
		t.Fatal("mobile-fleet delivered nothing")
	}
	a, err := Run(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, a) {
		t.Fatal("mobile run must reproduce under the same seed")
	}
}

// TestSincosMatchesCosSin pins the placement and waypoint draws'
// math.Sincos to math.Cos and math.Sin bit for bit, over 2^20 angles
// drawn the way the draws make them and the edges of their range: 0,
// every multiple of pi/4 up to 2*pi, and the largest angle below 2*pi.
func TestSincosMatchesCosSin(t *testing.T) {
	angles := []float64{0, math.Nextafter(2*math.Pi, 0)}
	for k := 1; k <= 8; k++ {
		angles = append(angles, float64(k)*math.Pi/4)
	}
	src := simrand.New(1)
	for range 1 << 20 {
		angles = append(angles, 2*math.Pi*src.Float64())
	}
	for _, th := range angles {
		sin, cos := math.Sincos(th)
		if math.Float64bits(sin) != math.Float64bits(math.Sin(th)) ||
			math.Float64bits(cos) != math.Float64bits(math.Cos(th)) {
			t.Fatalf("Sincos(%v) = (%v, %v), Sin/Cos give (%v, %v)", th, sin, cos, math.Sin(th), math.Cos(th))
		}
	}
}
