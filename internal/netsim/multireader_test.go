package netsim

import (
	"math"
	"reflect"
	"testing"
)

func TestPlaceReadersGeometry(t *testing.T) {
	one := PlaceReaders(ReaderSpec{Count: 1, Placement: ReaderRing, SpacingM: 10})
	if len(one) != 1 || one[0] != (Position{}) {
		t.Fatalf("single reader must sit at the origin, got %v", one)
	}

	line := PlaceReaders(ReaderSpec{Count: 3, Placement: ReaderLine, SpacingM: 4})
	if len(line) != 3 {
		t.Fatalf("line placed %d readers", len(line))
	}
	if line[0].X != -4 || line[1].X != 0 || line[2].X != 4 || line[0].Y != 0 {
		t.Fatalf("line layout wrong: %v", line)
	}

	ring := PlaceReaders(ReaderSpec{Count: 4, Placement: ReaderRing, SpacingM: 5})
	for i, p := range ring {
		if d := p.Distance(); math.Abs(d-5) > 1e-9 {
			t.Fatalf("ring reader %d at distance %g, want 5", i, d)
		}
	}

	grid := PlaceReaders(ReaderSpec{Count: 4, Placement: ReaderGrid, SpacingM: 6})
	if len(grid) != 4 {
		t.Fatalf("grid placed %d readers", len(grid))
	}
	// 2x2 lattice with pitch 6 centred on the origin.
	for i, p := range grid {
		if math.Abs(math.Abs(p.X)-3) > 1e-9 || math.Abs(math.Abs(p.Y)-3) > 1e-9 {
			t.Fatalf("grid reader %d at %v, want |x|=|y|=3", i, p)
		}
	}
}

func TestAssociationFollowsStrongestCarrier(t *testing.T) {
	// Two cells 40 m apart with tags huddled 1 m around each reader:
	// association must follow the local reader exactly, round-robin from
	// the cells topology.
	sc := Scenario{
		Tags: 16, Topology: TopologyCells, RadiusM: 25, ClusterSpreadM: 1,
		Readers:      ReaderSpec{Count: 2, Placement: ReaderLine, SpacingM: 40},
		FramesPerTag: 2,
	}
	res, err := Run(sc, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Readers) != 2 {
		t.Fatalf("want 2 reader stats, got %d", len(res.Readers))
	}
	total := 0
	for _, r := range res.Readers {
		total += r.AssociatedTags
	}
	if total != sc.Tags {
		t.Fatalf("association counts sum to %d, want %d", total, sc.Tags)
	}
	for _, tag := range res.Tags {
		if want := tag.ID % 2; tag.Reader != want {
			t.Fatalf("tag %d at (%.1f, %.1f) associated with reader %d, want %d",
				tag.ID, tag.X, tag.Y, tag.Reader, want)
		}
	}
}

func TestIndependentSchedulingAddsInterference(t *testing.T) {
	base := Scenario{
		Tags: 16, Topology: TopologyCells, RadiusM: 12, ClusterSpreadM: 2,
		Readers:      ReaderSpec{Count: 4, Placement: ReaderGrid, SpacingM: 8, IsolationdB: 10},
		FramesPerTag: 2,
	}
	indep := base
	indep.Readers.Scheduling = SchedulingIndependent
	tdm := base
	tdm.Readers.Scheduling = SchedulingTDM
	ri, err := Run(indep, 5)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Run(tdm, 5)
	if err != nil {
		t.Fatal(err)
	}
	// TDM readers are never active in the same epoch, so no carrier
	// leaks into anyone's noise floor; independent channels at 10 dB
	// isolation must show strictly lower SNR for every tag.
	if ri.MeanSNRdB() >= rt.MeanSNRdB() {
		t.Fatalf("inter-reader interference must depress SNR: independent %.2f dB, tdm %.2f dB",
			ri.MeanSNRdB(), rt.MeanSNRdB())
	}
	for i := range ri.Tags {
		if ri.Tags[i].SNRdB >= rt.Tags[i].SNRdB {
			t.Fatalf("tag %d: independent SNR %.2f dB not below tdm %.2f dB",
				i, ri.Tags[i].SNRdB, rt.Tags[i].SNRdB)
		}
	}
}

func TestCoChannelIsolationSentinel(t *testing.T) {
	spec := Scenario{Readers: ReaderSpec{Count: 2, IsolationdB: -1}}
	spec.ApplyDefaults()
	if spec.Readers.IsolationdB != 0 {
		t.Fatalf("negative isolation must request genuine 0 dB, got %g", spec.Readers.IsolationdB)
	}
	var unset Scenario
	unset.ApplyDefaults()
	if unset.Readers.IsolationdB != 20 {
		t.Fatalf("zero isolation must keep the 20 dB default, got %g", unset.Readers.IsolationdB)
	}

	// Co-channel readers leak everything: SNR must sit far below the
	// default-isolation run of the same layout.
	base := Scenario{
		Tags: 12, Topology: TopologyCells, RadiusM: 10, ClusterSpreadM: 2,
		Readers:      ReaderSpec{Count: 2, Placement: ReaderLine, SpacingM: 10},
		FramesPerTag: 2,
	}
	co := base
	co.Readers.IsolationdB = -1
	rd, err := Run(base, 7)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Run(co, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rc.MeanSNRdB() >= rd.MeanSNRdB()-10 {
		t.Fatalf("co-channel SNR %.2f dB not well below 20 dB-isolated %.2f dB",
			rc.MeanSNRdB(), rd.MeanSNRdB())
	}
}

func TestTDMServesEveryCell(t *testing.T) {
	sc := Scenario{
		Tags: 12, Topology: TopologyCells, RadiusM: 10, ClusterSpreadM: 1.5,
		Readers:      ReaderSpec{Count: 3, Placement: ReaderRing, SpacingM: 8, Scheduling: SchedulingTDM},
		FramesPerTag: 3, MaxRounds: 120,
	}
	res, err := Run(sc, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Readers {
		if r.FramesDelivered == 0 {
			t.Fatalf("TDM rotation starved reader %d (delivered %v)", r.ID, res.Readers)
		}
	}
	if res.FramesDelivered != res.FramesOffered {
		t.Fatalf("short-range TDM cell delivered %d of %d", res.FramesDelivered, res.FramesOffered)
	}
}

func TestMultiReaderParallelismBoostsThroughput(t *testing.T) {
	base := Scenario{
		Tags: 64, Topology: TopologyUniformDisc, RadiusM: 12,
		FramesPerTag: 4, MaxRounds: 400,
	}
	multi := base
	multi.Readers = ReaderSpec{Count: 4, Placement: ReaderGrid, SpacingM: 12}
	single, err := Run(base, 17)
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(multi, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Four independent channels drain the same population in parallel:
	// the aggregate goodput per unit of wall clock must beat one reader
	// sequencing everything through a single window.
	if four.Throughput() <= single.Throughput() {
		t.Fatalf("4 readers must out-run 1: throughput %.4f vs %.4f",
			four.Throughput(), single.Throughput())
	}
	if four.FramesDelivered != four.FramesOffered {
		t.Fatalf("multi-reader cell delivered %d of %d", four.FramesDelivered, four.FramesOffered)
	}
}

func TestMultiReaderDeterministic(t *testing.T) {
	sc, err := Preset("mall-cells")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(sc, 23)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc, 23)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same multi-reader scenario + seed must reproduce identically")
	}
	c, err := Run(sc, 24)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Tags, c.Tags) {
		t.Fatal("different seeds produced identical per-tag outcomes")
	}
}

func TestCellsTopologyNeedsAnchors(t *testing.T) {
	if _, err := PlaceTags(TopologyCells, 8, 5, 0, 1, nil, nil); err == nil {
		t.Fatal("cells topology without anchors accepted")
	}
}
