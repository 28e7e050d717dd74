package rateadapt

import (
	"math"
	"testing"

	"repro/internal/simrand"
)

// TestChunkLossProbsMatchScalar pins the batch form to ChunkLossProb
// bit for bit over every tail length, including SNRs whose Exp
// overflows or underflows and non-finite ones.
func TestChunkLossProbsMatchScalar(t *testing.T) {
	r := RateSpec{ReqSNRdB: 6}
	var snr []float64
	for s := -400.0; s <= 400; s += 0.37 {
		snr = append(snr, s)
	}
	snr = append(snr, math.Inf(1), math.Inf(-1), math.NaN(), 360.89, 361, -350, -377.5)
	for n := range 9 {
		for k := 0; k < len(snr); k += n + 1 {
			in := snr[k:min(k+n+1, len(snr))]
			got := make([]float64, len(in))
			ChunkLossProbs(r, got, in)
			for i, s := range in {
				if want := ChunkLossProb(r, s); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("snr %v: ChunkLossProbs %v, ChunkLossProb %v", s, got[i], want)
				}
			}
		}
	}
}

func TestChunkLossProbShape(t *testing.T) {
	r := RateSpec{ReqSNRdB: 8}
	if got := ChunkLossProb(r, 8); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("loss at requirement = %g, want 0.5", got)
	}
	if ChunkLossProb(r, 20) > 0.01 {
		t.Fatal("high SNR must have near-zero loss")
	}
	if ChunkLossProb(r, -5) < 0.99 {
		t.Fatal("low SNR must lose nearly everything")
	}
	// Monotone decreasing in SNR.
	prev := 1.0
	for snr := -10.0; snr <= 30; snr += 0.5 {
		p := ChunkLossProb(r, snr)
		if p > prev {
			t.Fatalf("loss not monotone at %g dB", snr)
		}
		prev = p
	}
}

func TestDefaultRatesOrdered(t *testing.T) {
	for i := 1; i < len(DefaultRates); i++ {
		if DefaultRates[i].Mult <= DefaultRates[i-1].Mult {
			t.Fatal("rates must be ordered slow to fast")
		}
		if DefaultRates[i].ReqSNRdB <= DefaultRates[i-1].ReqSNRdB {
			t.Fatal("faster rates must require more SNR")
		}
	}
}

func TestFixedAdapter(t *testing.T) {
	f := &Fixed{Index: 2, RateName: "1x"}
	f.OnChunk(false)
	f.OnFrame(false)
	if f.Rate() != 2 {
		t.Fatal("fixed adapter must never move")
	}
	if f.Name() != "fixed-1x" {
		t.Fatalf("name = %s", f.Name())
	}
}

func TestARFStepsUpAndDown(t *testing.T) {
	a := NewARF(4)
	if a.Rate() != 0 {
		t.Fatal("ARF must start at the lowest rate")
	}
	for i := 0; i < 3; i++ {
		a.OnFrame(true)
	}
	if a.Rate() != 1 {
		t.Fatalf("after 3 good frames rate = %d, want 1", a.Rate())
	}
	a.OnFrame(false)
	if a.Rate() != 0 {
		t.Fatalf("after a bad frame rate = %d, want 0", a.Rate())
	}
	// Chunk feedback is ignored.
	for i := 0; i < 100; i++ {
		a.OnChunk(true)
	}
	if a.Rate() != 0 {
		t.Fatal("ARF must ignore chunk feedback")
	}
}

func TestARFBounded(t *testing.T) {
	a := NewARF(2)
	for i := 0; i < 50; i++ {
		a.OnFrame(true)
	}
	if a.Rate() != 1 {
		t.Fatalf("rate = %d, want max 1", a.Rate())
	}
	for i := 0; i < 50; i++ {
		a.OnFrame(false)
	}
	if a.Rate() != 0 {
		t.Fatalf("rate = %d, want 0", a.Rate())
	}
}

func TestFullDuplexAdapterReactsPerChunk(t *testing.T) {
	a := NewFullDuplex(4)
	for i := 0; i < 8; i++ {
		a.OnChunk(true)
	}
	if a.Rate() != 1 {
		t.Fatalf("after 8 ACKs rate = %d, want 1", a.Rate())
	}
	a.OnChunk(false)
	if a.Rate() != 0 {
		t.Fatal("one NACK must step down immediately")
	}
	a.OnChunk(false) // at floor
	if a.Rate() != 0 {
		t.Fatal("rate must not go below 0")
	}
}

func TestRunTraceDeterministic(t *testing.T) {
	cfg := SimConfig{MeanSNRdB: 10, Seed: 7}
	a := RunTrace(cfg, NewFullDuplex(4), 5000)
	b := RunTrace(cfg, NewFullDuplex(4), 5000)
	if a.DeliveredBytes != b.DeliveredBytes || a.Switches != b.Switches {
		t.Fatal("same seed must reproduce")
	}
}

func TestHighSNRFavoursFastRate(t *testing.T) {
	cfg := SimConfig{MeanSNRdB: 25, Seed: 11}
	res := RunTrace(cfg, NewFullDuplex(len(DefaultRates)), 20000)
	// Most time should be spent at the top rate.
	top := res.RateTime[len(res.RateTime)-1]
	var total float64
	for _, v := range res.RateTime {
		total += v
	}
	if top/total < 0.5 {
		t.Fatalf("at 25 dB the adapter spent only %.0f%% at the top rate", 100*top/total)
	}
}

func TestLowSNRStaysSlow(t *testing.T) {
	cfg := SimConfig{MeanSNRdB: 2, Seed: 13}
	res := RunTrace(cfg, NewFullDuplex(len(DefaultRates)), 20000)
	slow := res.RateTime[0] + res.RateTime[1]
	var total float64
	for _, v := range res.RateTime {
		total += v
	}
	if slow/total < 0.5 {
		t.Fatalf("at 2 dB the adapter spent only %.0f%% at slow rates", 100*slow/total)
	}
}

func TestFDOutperformsARFOnFades(t *testing.T) {
	// Averaged over several seeds, per-chunk adaptation should deliver
	// more than frame-level probing on a channel whose coherence is
	// shorter than a frame.
	var fdSum, arfSum float64
	for seed := uint64(0); seed < 5; seed++ {
		cfg := SimConfig{MeanSNRdB: 12, FadeRho: 0.95, FrameChunks: 48, Seed: seed}
		fd := RunTrace(cfg, NewFullDuplex(len(DefaultRates)), 30000)
		arf := RunTrace(cfg, NewARF(len(DefaultRates)), 30000)
		fdSum += fd.ThroughputBytesPerTime()
		arfSum += arf.ThroughputBytesPerTime()
	}
	if fdSum <= arfSum {
		t.Fatalf("FD adaptation %g must beat ARF %g on fast fades", fdSum/5, arfSum/5)
	}
}

func TestFDBeatsBadFixedChoices(t *testing.T) {
	cfg := SimConfig{MeanSNRdB: 10, FadeRho: 0.98, Seed: 17}
	fd := RunTrace(cfg, NewFullDuplex(len(DefaultRates)), 30000)
	fixedSlow := RunTrace(cfg, &Fixed{Index: 0, RateName: "0.25x"}, 30000)
	fixedFast := RunTrace(cfg, &Fixed{Index: 3, RateName: "2x"}, 30000)
	if fd.ThroughputBytesPerTime() <= fixedSlow.ThroughputBytesPerTime() {
		t.Fatalf("FD %g must beat always-slow %g", fd.ThroughputBytesPerTime(), fixedSlow.ThroughputBytesPerTime())
	}
	if fd.ThroughputBytesPerTime() <= fixedFast.ThroughputBytesPerTime() {
		t.Fatalf("FD %g must beat always-fast %g at 10 dB", fd.ThroughputBytesPerTime(), fixedFast.ThroughputBytesPerTime())
	}
}

func TestTraceResultAccessors(t *testing.T) {
	var r TraceResult
	if r.ThroughputBytesPerTime() != 0 || r.LossRate() != 0 {
		t.Fatal("zero-value accessors must be 0")
	}
	r.Adapter = "x"
	if r.String() == "" {
		t.Fatal("String must render")
	}
}

func TestFeedbackBERDegradesFD(t *testing.T) {
	clean := SimConfig{MeanSNRdB: 12, FadeRho: 0.97, Seed: 19}
	noisy := clean
	noisy.FeedbackBER = 0.2
	a := RunTrace(clean, NewFullDuplex(len(DefaultRates)), 30000)
	b := RunTrace(noisy, NewFullDuplex(len(DefaultRates)), 30000)
	if b.ThroughputBytesPerTime() >= a.ThroughputBytesPerTime() {
		t.Fatalf("20%% feedback BER should hurt: %g vs %g",
			b.ThroughputBytesPerTime(), a.ThroughputBytesPerTime())
	}
}

// A population sharing one adapter configuration can keep only State
// per instance and run through one scratch adapter; replaying random
// feedback both ways must agree with whole-struct adapters on every
// rate decision and every state word.
func TestAdapterStateReplayMatchesWholeStruct(t *testing.T) {
	const n, steps = 6, 5000
	src := simrand.New(9)
	arfCfg := ARF{NumRates: 4, UpAfter: 3, DownAfter: 2}
	fdCfg := FullDuplex{NumRates: 4, UpAfter: 5}
	arfWhole := make([]ARF, n)
	fdWhole := make([]FullDuplex, n)
	type arfState struct{ idx, good, bad int }
	type fdState struct{ idx, good int }
	arfCols := make([]arfState, n)
	fdCols := make([]fdState, n)
	for i := 0; i < n; i++ {
		arfWhole[i], fdWhole[i] = arfCfg, fdCfg
	}
	arf, fd := arfCfg, fdCfg
	visited := map[int]bool{}
	for k := 0; k < steps; k++ {
		for i := 0; i < n; i++ {
			// Per-instance success probability spread across the table
			// so some instances pin the top rate and some the bottom.
			ok := src.Bool(float64(i+1) / float64(n+1))
			c := &arfCols[i]
			arf.SetState(c.idx, c.good, c.bad)
			arf.OnChunk(ok)
			arf.OnFrame(ok)
			arfWhole[i].OnChunk(ok)
			arfWhole[i].OnFrame(ok)
			if arf.Rate() != arfWhole[i].Rate() {
				t.Fatalf("step %d arf %d: rate %d via state, %d whole", k, i, arf.Rate(), arfWhole[i].Rate())
			}
			c.idx, c.good, c.bad = arf.State()
			if *c != (arfState{arfWhole[i].idx, arfWhole[i].goodStreak, arfWhole[i].badStreak}) {
				t.Fatalf("step %d arf %d: state %+v diverged from whole struct %+v", k, i, *c, arfWhole[i])
			}
			visited[c.idx] = true

			d := &fdCols[i]
			fd.SetState(d.idx, d.good)
			fd.OnChunk(ok)
			fd.OnFrame(ok)
			fdWhole[i].OnChunk(ok)
			fdWhole[i].OnFrame(ok)
			if fd.Rate() != fdWhole[i].Rate() {
				t.Fatalf("step %d fd %d: rate %d via state, %d whole", k, i, fd.Rate(), fdWhole[i].Rate())
			}
			d.idx, d.good = fd.State()
			if *d != (fdState{fdWhole[i].idx, fdWhole[i].goodStreak}) {
				t.Fatalf("step %d fd %d: state %+v diverged from whole struct %+v", k, i, *d, fdWhole[i])
			}
			visited[d.idx] = true
		}
	}
	if len(visited) != 4 {
		t.Fatalf("replay visited rates %v: want every rate of the table", visited)
	}
}

// TestFadeStepMatchesRayleighInnovation holds FadeStep, with the
// deviation precomputed once by FadeSigma, to the recursion it stands
// for, rho*h + CN(0, 1-rho^2) drawn by RayleighCoeff, bit for bit over
// a chain of steps for each rho.
func TestFadeStepMatchesRayleighInnovation(t *testing.T) {
	for _, rho := range []float64{0, 0.3, 0.9, 0.95, 0.999} {
		a, b := simrand.New(11), simrand.New(11)
		sigma := FadeSigma(rho)
		h, want := complex(0.6, -0.2), complex(0.6, -0.2)
		for k := 0; k < 1000; k++ {
			h = FadeStep(h, rho, sigma, a)
			want = complex(rho, 0)*want + b.RayleighCoeff(1-rho*rho)
			if math.Float64bits(real(h)) != math.Float64bits(real(want)) || math.Float64bits(imag(h)) != math.Float64bits(imag(want)) {
				t.Fatalf("rho %v step %d: FadeStep = %v, rho*h + RayleighCoeff = %v", rho, k, h, want)
			}
		}
	}
}
