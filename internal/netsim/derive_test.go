package netsim

// The derive phase stages each block of tags pass by pass (distances,
// gains, association, then each transcendental column) so the CPU can
// overlap independent chains. These tests hold it to the plain
// one-tag-at-a-time derivation it replaced, bit for bit.

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/feedback"
	"repro/internal/rateadapt"
	"repro/internal/simrand"
)

// derivedTag is one tag's derive-phase output.
type derivedTag struct {
	reader                        int
	harvestW, snrDB, lossP, fbBER float64
	distanceM                     float64
}

// deriveScalar derives tag i of e one reader at a time, the way the
// engine did before staging, filling gains (length R) with the tag's
// per-reader path gains.
func deriveScalar(e *engine, i int, gains []float64) derivedTag {
	sc := &e.sc
	var downMask []bool
	if e.flt != nil {
		downMask = e.flt.mask()
	}
	best, bestG := 0, -1.0
	sumW := 0.0
	px, py := e.tags.pos[i].X, e.tags.pos[i].Y
	for r := range e.readers {
		g := e.pl.Gain(math.Hypot(px-e.readers[r].X, py-e.readers[r].Y))
		gains[r] = g
		if downMask != nil && downMask[r] {
			continue
		}
		sumW += sc.TxPowerW * g
		if g > bestG {
			best, bestG = r, g
		}
	}
	carrierW := sc.TxPowerW * bestG
	noiseW := sc.NoiseW + e.couplingW*(sumW-carrierW)
	snrDB := 10 * math.Log10(carrierW/noiseW)
	delta := bestG * math.Sqrt(sc.Rho)
	sigma := math.Sqrt(noiseW/2) / math.Sqrt(sc.TxPowerW)
	return derivedTag{
		reader:    best,
		harvestW:  sumW,
		snrDB:     snrDB,
		lossP:     rateadapt.ChunkLossProb(e.rate, snrDB),
		fbBER:     feedback.ManchesterBER(delta, sigma, sc.FeedbackSamplesPerBit),
		distanceM: math.Hypot(px-e.readers[best].X, py-e.readers[best].Y),
	}
}

// newTestEngine builds sc's engine at seed with its links derived; the
// caller stops its pool.
func newTestEngine(t testing.TB, sc Scenario, seed uint64, workers int) *engine {
	t.Helper()
	sc.ApplyDefaults()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	root := simrand.New(seed)
	placeSrc, _, _, mobilitySrc := root.Split(), root.Split(), root.Split(), root.Split()
	e, err := newEngine(sc, seed, workers, root, placeSrc, mobilitySrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkDerived compares every derived column of e with deriveScalar.
func checkDerived(t *testing.T, name string, e *engine) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	R := len(e.readers)
	gains := make([]float64, R)
	tg := &e.tags
	for i := range tg.len() {
		want := deriveScalar(e, i, gains)
		ts := &tg.stats[i]
		switch {
		case int(tg.reader[i]) != want.reader:
			t.Fatalf("%s tag %d: reader %d, scalar %d", name, i, tg.reader[i], want.reader)
		case !same(tg.harvestW[i], want.harvestW):
			t.Fatalf("%s tag %d: harvestW %v, scalar %v", name, i, tg.harvestW[i], want.harvestW)
		case !same(ts.ChunkLossProb, want.lossP):
			t.Fatalf("%s tag %d: ChunkLossProb %v, scalar %v", name, i, ts.ChunkLossProb, want.lossP)
		case !same(ts.FeedbackBER, want.fbBER):
			t.Fatalf("%s tag %d: FeedbackBER %v, scalar %v", name, i, ts.FeedbackBER, want.fbBER)
		case !same(ts.SNRdB, want.snrDB):
			// Also the fading mean under rate adaptation.
			t.Fatalf("%s tag %d: SNRdB %v, scalar %v", name, i, ts.SNRdB, want.snrDB)
		case ts.Reader != want.reader || !same(ts.X, tg.pos[i].X) || !same(ts.Y, tg.pos[i].Y) ||
			!same(ts.DistanceM, want.distanceM):
			t.Fatalf("%s tag %d: stats %+v, scalar %+v", name, i, *ts, want)
		}
		if e.gains != nil {
			for r, g := range gains {
				if !same(e.gains[i*R+r], g) {
					t.Fatalf("%s tag %d reader %d: gain %v, scalar %v", name, i, r, e.gains[i*R+r], g)
				}
			}
		}
	}
}

func TestDeriveMatchesScalar(t *testing.T) {
	disc := func(name string, tags, readers int, spacing float64) Scenario {
		return Scenario{Name: name, Tags: tags, Topology: TopologyUniformDisc, RadiusM: 40,
			Readers: ReaderSpec{Count: readers, Placement: ReaderGrid, SpacingM: spacing}}
	}
	million, err := Preset("million")
	if err != nil {
		t.Fatal(err)
	}
	million.Tags = 1 << 14
	shelf, err := LoadScenario(filepath.Join("..", "..", "examples", "scenarios", "tdm-arf-shelf.json"))
	if err != nil {
		t.Fatal(err)
	}
	tdm := disc("tdm-7", 5003, 7, 12)
	tdm.Readers.Scheduling = SchedulingTDM
	// Block sizes are 512, 73 and 8 tags at 1, 7 and 64 readers; no tag
	// count below is a multiple of its block or of tagShardLen.
	cases := []struct {
		sc      Scenario
		workers int
	}{
		{disc("r1", tagShardLen+517, 1, 10), 1},
		{disc("r7", 2*tagShardLen+75, 7, 12), 2},
		{disc("r64", tagShardLen+3, 64, 4), 2},
		{tdm, 2},
		{shelf, 1},
		{million, 2},
	}
	for _, c := range cases {
		e := newTestEngine(t, c.sc, 3, c.workers)
		checkDerived(t, c.sc.Name, e)
		e.pool.stop()
	}

	// An outaged reader leaves association, harvest and interference;
	// with every reader out the mask lifts and geometry decides.
	sc := disc("faults", 3001, 7, 12)
	sc.Faults = FaultSpec{OutageRate: 0.01}
	e := newTestEngine(t, sc, 5, 2)
	defer e.pool.stop()
	e.flt.down[2], e.flt.down[5] = true, true
	e.deriveLinks()
	checkDerived(t, "faults-2-down", e)
	for r := range e.flt.down {
		e.flt.down[r] = true
	}
	e.flt.anyUp = false
	e.deriveLinks()
	checkDerived(t, "faults-all-down", e)
}

// BenchmarkDeriveLinks times one derive phase of the million preset at
// 2^16 tags on one worker: the per-epoch path-loss, association and
// link-quality pass.
func BenchmarkDeriveLinks(b *testing.B) {
	sc, err := Preset("million")
	if err != nil {
		b.Fatal(err)
	}
	sc.Tags = 1 << 16
	e := newTestEngine(b, sc, 1, 1)
	defer e.pool.stop()
	for b.Loop() {
		e.deriveLinks()
	}
}
