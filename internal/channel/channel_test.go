package channel

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/sigproc"
	"repro/internal/simrand"
)

func TestFreeSpaceGain(t *testing.T) {
	fs := FreeSpace{FreqHz: 915e6}
	// lambda ~ 0.3276 m; gain at 1 m = (lambda/4pi)^2 ~ 6.8e-4.
	g1 := fs.Gain(1)
	lambda := SpeedOfLight / 915e6
	want := math.Pow(lambda/(4*math.Pi), 2)
	if math.Abs(g1-want) > 1e-9 {
		t.Fatalf("gain(1m) = %g, want %g", g1, want)
	}
	// Inverse square: doubling distance quarters the gain.
	if r := fs.Gain(2) / g1; math.Abs(r-0.25) > 1e-9 {
		t.Fatalf("ratio = %g, want 0.25", r)
	}
}

func TestFreeSpaceClampsNearField(t *testing.T) {
	fs := FreeSpace{FreqHz: 915e6}
	if fs.Gain(0) != fs.Gain(0.1) {
		t.Fatal("near-field distances must clamp")
	}
	if fs.Gain(0.001) > 1e3 {
		t.Fatal("clamped gain exploded")
	}
}

func TestLogDistanceExponent(t *testing.T) {
	ld := NewLogDistance(915e6, 3)
	// 10x distance should cost 30 dB with n=3.
	r := ld.Gain(10) / ld.Gain(1)
	if math.Abs(sigproc.DB(r)+30) > 1e-9 {
		t.Fatalf("10x distance = %g dB, want -30", sigproc.DB(r))
	}
}

func TestLogDistanceDefaults(t *testing.T) {
	ld := LogDistance{RefGain: 1}
	// Defaults: d0=1, n=2, min 0.1.
	if r := ld.Gain(2) / ld.Gain(1); math.Abs(r-0.25) > 1e-9 {
		t.Fatalf("default exponent not 2: ratio %g", r)
	}
	if ld.Gain(0.01) != ld.Gain(0.1) {
		t.Fatal("min distance clamp missing")
	}
}

// TestLogDistanceGainMatchesPow pins Gain's pow kernel to math.Pow bit
// for bit over the exponents scenarios use and 10^6 log-spaced
// distances from inside the near-field clamp out to 10 km, plus inputs
// outside the kernel's domain that must fall back to math.Pow.
func TestLogDistanceGainMatchesPow(t *testing.T) {
	const (
		steps = 1_000_000
		lo    = 0.01 // below the default 0.1 m clamp
		hi    = 1e4
	)
	ref := NewLogDistance(915e6, 2)
	check := func(l LogDistance, d float64) {
		min, d0 := l.MinDistanceM, l.RefDistanceM
		if min <= 0 {
			min = 0.1
		}
		if d0 <= 0 {
			d0 = 1
		}
		want := l.RefGain * math.Pow(d0/max(d, min), l.Exponent)
		if got := l.Gain(d); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%g d0=%g min=%g d=%v: Gain %v, RefGain*math.Pow %v", l.Exponent, d0, min, d, got, want)
		}
	}
	logLo, logStep := math.Log(lo), math.Log(hi/lo)/steps
	for _, n := range []float64{1, 1.5, 2, 2.2, 2.5, 2.7, 3, 3.5, 4, 8} {
		l := ref
		l.Exponent = n
		for k := 0; k <= steps; k++ {
			check(l, math.Exp(logLo+float64(k)*logStep))
		}
		check(l, 1)
		check(l, math.Nextafter(0.1, 0))
		check(l, math.Nextafter(0.1, 1))
	}
	// Outside the kernel's domain: exponents beyond [1, 8] and ratios
	// d0/d beyond 2^±60.
	for _, l := range []LogDistance{
		{RefGain: ref.RefGain, RefDistanceM: 1, Exponent: 0.5},
		{RefGain: ref.RefGain, RefDistanceM: 1, Exponent: 9.5},
		{RefGain: ref.RefGain, RefDistanceM: 1, Exponent: 2.5, MinDistanceM: 1e-30},
		{RefGain: ref.RefGain, RefDistanceM: 1e-30, Exponent: 3.5},
	} {
		for _, d := range []float64{1e-30, 1e-20, 0.5, 1, 3, 1e20, 1e30} {
			check(l, d)
		}
	}
}

// TestLogDistanceGainsMatchGain pins the batch kernel to Gain bit for
// bit: 10^6 log-spaced distances per exponent, from inside the
// near-field clamp out past the 2^60 ratio where the kernel falls back
// to math.Pow, cut into batches of every length from 1 to 17 so each
// pass meets every tail. Non-default reference and clamp distances,
// exponents outside [1, 8] and non-finite distances are covered too.
func TestLogDistanceGainsMatchGain(t *testing.T) {
	const (
		steps = 1_000_000
		lo    = 0.01 // below the default 0.1 m clamp
		hi    = 1e20 // d0/d = 1e-20 < 2^-60
	)
	d := make([]float64, 0, steps+8)
	logLo, logStep := math.Log(lo), math.Log(hi/lo)/steps
	for k := 0; k <= steps; k++ {
		d = append(d, math.Exp(logLo+float64(k)*logStep))
	}
	d = append(d, 0, -1, 0.1, math.Nextafter(0.1, 0), 0x1p60, math.Inf(1), math.NaN())
	dst := make([]float64, len(d))
	ref := NewLogDistance(915e6, 2)
	check := func(l LogDistance) {
		for k, n := 0, 1; k < len(d); k, n = k+n, n%17+1 {
			end := min(k+n, len(d))
			l.GainsInto(dst[k:end], d[k:end])
		}
		for k, dk := range d {
			if want := l.Gain(dk); math.Float64bits(dst[k]) != math.Float64bits(want) {
				t.Fatalf("%+v d=%v: GainsInto %v, Gain %v", l, dk, dst[k], want)
			}
		}
	}
	for _, n := range []float64{1, 1.5, 2, 2.2, 2.5, 2.7, 3, 3.5, 4, 8} {
		l := ref
		l.Exponent = n
		check(l)
	}
	check(LogDistance{RefGain: ref.RefGain, RefDistanceM: 2.5, MinDistanceM: 0.3, Exponent: 2.7})
	check(LogDistance{RefGain: ref.RefGain, RefDistanceM: 0.5, MinDistanceM: 1e-3, Exponent: 3})
	check(LogDistance{RefGain: ref.RefGain, Exponent: 0.5})
	check(LogDistance{RefGain: ref.RefGain, Exponent: 9.5})
}

// BenchmarkGains compares eight readers' path loss per tag, the
// million preset's shape, as a loop of scalar Gain calls and as one
// GainsInto batch.
func BenchmarkGains(b *testing.B) {
	const readers, tags = 8, 1 << 12
	l := NewLogDistance(915e6, 2.5)
	src := simrand.New(1)
	d := make([]float64, readers*tags)
	for k := range d {
		d[k] = 0.5 + 60*src.Float64()
	}
	dst := make([]float64, len(d))
	b.Run("scalar", func(b *testing.B) {
		for range b.N {
			for k, dk := range d {
				dst[k] = l.Gain(dk)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for range b.N {
			l.GainsInto(dst, d)
		}
	})
}

func TestPathLossMonotoneProperty(t *testing.T) {
	models := []PathLoss{
		FreeSpace{FreqHz: 915e6},
		NewLogDistance(915e6, 2.5),
	}
	f := func(aRaw, bRaw uint16) bool {
		a := 0.2 + float64(aRaw%1000)/100 // 0.2..10.2 m
		b := 0.2 + float64(bRaw%1000)/100
		if a > b {
			a, b = b, a
		}
		for _, m := range models {
			if m.Gain(a) < m.Gain(b)-1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStaticFader(t *testing.T) {
	f := NewStaticFader(2i)
	if f.NextCoeff() != 2i || f.NextCoeff() != 2i {
		t.Fatal("static fader must not change")
	}
}

func TestRayleighFaderUnitPower(t *testing.T) {
	f := NewRayleighFader(simrand.New(1))
	var p float64
	const n = 100000
	for i := 0; i < n; i++ {
		h := f.NextCoeff()
		p += real(h)*real(h) + imag(h)*imag(h)
	}
	if got := p / n; math.Abs(got-1) > 0.05 {
		t.Fatalf("mean power = %g, want 1", got)
	}
}

func TestRicianFaderUnitPower(t *testing.T) {
	f := NewRicianFader(simrand.New(2), 5)
	var p float64
	const n = 100000
	for i := 0; i < n; i++ {
		h := f.NextCoeff()
		p += real(h)*real(h) + imag(h)*imag(h)
	}
	if got := p / n; math.Abs(got-1) > 0.05 {
		t.Fatalf("mean power = %g, want 1", got)
	}
}

func TestGaussMarkovCorrelation(t *testing.T) {
	const rho = 0.95
	f := NewGaussMarkovFader(simrand.New(3), rho)
	const n = 200000
	var prev complex128
	var crossRe, power float64
	for i := 0; i < n; i++ {
		h := f.NextCoeff()
		if i > 0 {
			crossRe += real(h * cmplx.Conj(prev))
		}
		power += real(h * cmplx.Conj(h))
		prev = h
	}
	corr := crossRe / power
	if math.Abs(corr-rho) > 0.02 {
		t.Fatalf("lag-1 correlation = %g, want %g", corr, rho)
	}
	if got := power / n; math.Abs(got-1) > 0.05 {
		t.Fatalf("stationary power = %g, want 1", got)
	}
}

func TestGaussMarkovPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGaussMarkovFader(simrand.New(1), 1.0)
}

func TestPathGainApplied(t *testing.T) {
	p := &Path{Gain: 0.25}
	tx := sigproc.NewIQ(64).Fill(1)
	rx := p.Apply(tx, nil)
	// Power gain 0.25 -> amplitude 0.5.
	if math.Abs(rx.Power()-0.25) > 1e-12 {
		t.Fatalf("rx power = %g, want 0.25", rx.Power())
	}
}

func TestPathAddToSuperimposes(t *testing.T) {
	p1 := &Path{Gain: 1}
	p2 := &Path{Gain: 1}
	tx := sigproc.NewIQ(8).Fill(1)
	dst := sigproc.NewIQ(8)
	p1.AddTo(tx, dst)
	p2.AddTo(tx, dst)
	if dst[0] != 2 {
		t.Fatalf("superposition = %v, want 2", dst[0])
	}
}

func TestPathAddToPanicsOnShortDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Path{Gain: 1}).AddTo(sigproc.NewIQ(8), sigproc.NewIQ(4))
}

func TestPathDelay(t *testing.T) {
	p := &Path{Gain: 1, DelaySamples: 2}
	tx := sigproc.IQ{1, 0, 0, 0}
	rx := p.Apply(tx, nil)
	if cmplx.Abs(rx[0]) > 1e-12 || cmplx.Abs(rx[2]-1) > 1e-12 {
		t.Fatalf("delayed impulse wrong: %v", rx)
	}
}

func TestPathCFORotates(t *testing.T) {
	const fs = 1e6
	p := &Path{Gain: 1, CFOHz: 1000, SampleRate: fs}
	tx := sigproc.NewIQ(1000).Fill(1)
	rx := p.Apply(tx, nil)
	// After 1000 samples at 1 kHz offset and 1 MHz fs, phase advanced
	// 2*pi*1000*(1000/1e6) = 2*pi rad -> back near start; halfway should
	// be rotated by pi.
	if cmplx.Abs(rx[500]-cmplx.Exp(complex(0, math.Pi))) > 1e-6 {
		t.Fatalf("mid-block rotation wrong: %v", rx[500])
	}
}

func TestPathCFOPhaseContinuity(t *testing.T) {
	const fs = 1e6
	p := &Path{Gain: 1, CFOHz: 12345, SampleRate: fs}
	tx := sigproc.NewIQ(100).Fill(1)
	a := p.Apply(tx, nil).Clone()
	b := p.Apply(tx, nil)
	// First sample of second block should continue the rotation, not
	// reset to phase 0.
	step := 2 * math.Pi * 12345 / fs
	wantPhase := step * 100
	got := cmplx.Phase(b[0])
	want := math.Mod(wantPhase+math.Pi, 2*math.Pi) - math.Pi
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("phase discontinuity: got %g, want %g (first block last %v)", got, want, a[99])
	}
}

func TestPathCFOWithoutRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Path{Gain: 1, CFOHz: 100}).Apply(sigproc.NewIQ(4), nil)
}

func TestPathFaderScales(t *testing.T) {
	p := &Path{Gain: 1, Fader: NewStaticFader(complex(0, 1))}
	tx := sigproc.IQ{1}
	rx := p.Apply(tx, nil)
	if cmplx.Abs(rx[0]-1i) > 1e-12 {
		t.Fatalf("fader coefficient not applied: %v", rx[0])
	}
}

func TestFadingKindString(t *testing.T) {
	if FadingRayleigh.String() != "rayleigh" || FadingKind(99).String() == "" {
		t.Fatal("FadingKind.String broken")
	}
}
