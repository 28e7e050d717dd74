package simrand

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestDeterministicSameSeed(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependentButDeterministic(t *testing.T) {
	a1 := New(7)
	a2 := New(7)
	c1 := a1.Split()
	c2 := a2.Split()
	for i := 0; i < 50; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split must be deterministic given the parent seed")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Gaussian(2, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("mean = %g, want 2", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Fatalf("variance = %g, want 9", variance)
	}
}

func TestComplexNormalPower(t *testing.T) {
	s := New(13)
	const n = 200000
	const want = 4.0
	var p float64
	for i := 0; i < n; i++ {
		v := s.ComplexNormal(want)
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= n
	if math.Abs(p-want) > 0.1 {
		t.Fatalf("power = %g, want %g", p, want)
	}
}

func TestRicianKZeroIsRayleighLike(t *testing.T) {
	s := New(19)
	const n = 100000
	var p float64
	for i := 0; i < n; i++ {
		h := s.RicianCoeff(1, 0)
		p += real(h)*real(h) + imag(h)*imag(h)
	}
	if got := p / n; math.Abs(got-1) > 0.05 {
		t.Fatalf("K=0 Rician power = %g, want 1", got)
	}
}

func TestRicianLargeKConcentrates(t *testing.T) {
	s := New(23)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		h := s.RicianCoeff(1, 100)
		a := math.Hypot(real(h), imag(h))
		sum += a
		sumSq += a * a
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance > 0.02 {
		t.Fatalf("K=100 envelope variance = %g, want tiny", variance)
	}
	if math.Abs(mean-1) > 0.05 {
		t.Fatalf("K=100 envelope mean = %g, want ~1", mean)
	}
}

func TestRicianNegativeKClamped(t *testing.T) {
	s := New(27)
	h := s.RicianCoeff(1, -5)
	if math.IsNaN(real(h)) || math.IsNaN(imag(h)) {
		t.Fatal("negative K must be clamped, not NaN")
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(31)
	for _, mean := range []float64{0.5, 3, 50} {
		const n = 100000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Fatalf("Poisson(%g) mean = %g", mean, got)
		}
	}
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 {
		t.Fatal("non-positive mean should give 0")
	}
}

// PoissonL with l = math.Exp(-mean) draws what Poisson draws, on every
// branch: non-positive means, Knuth's loop and the normal approximation.
func TestPoissonLMatchesPoisson(t *testing.T) {
	for _, mean := range []float64{-1, 0, 1e-3, 0.5, 3, 29.9, 30, 31, 50} {
		a, b := New(41), New(41)
		l := math.Exp(-mean)
		for i := 0; i < 1000; i++ {
			if x, y := a.Poisson(mean), b.PoissonL(mean, l); x != y {
				t.Fatalf("mean %g draw %d: Poisson %d, PoissonL %d", mean, i, x, y)
			}
		}
		if *a != *b {
			t.Fatalf("mean %g: streams diverged", mean)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(37)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %g", got)
	}
}

func TestBitBalanced(t *testing.T) {
	s := New(41)
	ones := 0
	const n = 100000
	for i := 0; i < n; i++ {
		b := s.Bit()
		if b > 1 {
			t.Fatalf("Bit returned %d", b)
		}
		ones += int(b)
	}
	ratio := float64(ones) / n
	if ratio < 0.48 || ratio > 0.52 {
		t.Fatalf("ones ratio = %g", ratio)
	}
}

func TestFillNoisePower(t *testing.T) {
	s := New(43)
	x := make([]complex128, 100000)
	s.FillNoise(x, 0.25)
	var p float64
	for _, v := range x {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= float64(len(x))
	if math.Abs(p-0.25) > 0.01 {
		t.Fatalf("noise power = %g, want 0.25", p)
	}
}

func TestFillNoiseZeroPowerNoop(t *testing.T) {
	s := New(47)
	x := []complex128{1, 2}
	s.FillNoise(x, 0)
	if x[0] != 1 || x[1] != 2 {
		t.Fatal("zero-power noise must not modify the buffer")
	}
}

func TestPerm(t *testing.T) {
	s := New(51)
	p := s.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestGilbertElliottSteadyState(t *testing.T) {
	src := New(53)
	g := NewGilbertElliott(src, 0.01, 0.1, 0.001, 0.5)
	const n = 2000000
	losses := 0
	for i := 0; i < n; i++ {
		if g.Step() {
			losses++
		}
	}
	got := float64(losses) / n
	want := g.SteadyStateLoss()
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("empirical loss %g, analytic %g", got, want)
	}
}

func TestGilbertElliottBursty(t *testing.T) {
	// With strong state persistence, losses must cluster: the probability
	// of a loss immediately following a loss should far exceed the
	// marginal loss rate.
	src := New(59)
	g := NewGilbertElliott(src, 0.005, 0.05, 0, 0.9)
	const n = 500000
	losses, pairs, prevLoss := 0, 0, false
	for i := 0; i < n; i++ {
		l := g.Step()
		if l {
			losses++
			if prevLoss {
				pairs++
			}
		}
		prevLoss = l
	}
	marginal := float64(losses) / n
	conditional := float64(pairs) / float64(losses)
	if conditional < 2*marginal {
		t.Fatalf("losses not bursty: P(loss|loss)=%g vs marginal %g", conditional, marginal)
	}
}

func TestGilbertElliottDegenerate(t *testing.T) {
	g := &GilbertElliott{LossGood: 0.2}
	if got := g.SteadyStateLoss(); got != 0.2 {
		t.Fatalf("degenerate steady state = %g, want 0.2", got)
	}
}

func TestGilbertElliottBadAccessor(t *testing.T) {
	src := New(61)
	g := NewGilbertElliott(src, 1, 0, 0, 1) // deterministically jumps to Bad
	g.Step()
	if !g.Bad() {
		t.Fatal("channel should be in Bad state after forced transition")
	}
}

// The direct-PCG fast paths (norm, f64, Uint64, Bit) must consume and
// produce the stream exactly as the rand.Rand wrappers they replace, or
// every seeded experiment output would shift. Interleave the draw kinds
// against a reference rand.Rand over the same PCG.
func TestFastPathsMatchMathRand(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 0xdeadbeef} {
		src := New(seed)
		ref := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		for i := 0; i < 20000; i++ {
			switch i % 4 {
			case 0:
				if got, want := src.Normal(), ref.NormFloat64(); got != want {
					t.Fatalf("seed %d draw %d: Normal = %v, want %v", seed, i, got, want)
				}
			case 1:
				if got, want := src.Float64(), ref.Float64(); got != want {
					t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, got, want)
				}
			case 2:
				if got, want := src.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d draw %d: Uint64 = %v, want %v", seed, i, got, want)
				}
			case 3:
				if got, want := src.Bit(), byte(ref.Uint64()&1); got != want {
					t.Fatalf("seed %d draw %d: Bit = %v, want %v", seed, i, got, want)
				}
			}
			if i%100 != 99 {
				continue
			}
			// The per-call rand.Rand wrappers (IntN, Perm) and Split
			// must consume the shared PCG exactly as the reference does.
			for _, n := range []int{1, 3, 64, 1000, 1 << 33} {
				if got, want := src.IntN(n), ref.IntN(n); got != want {
					t.Fatalf("seed %d draw %d: IntN(%d) = %d, want %d", seed, i, n, got, want)
				}
			}
			if got, want := src.Perm(17), ref.Perm(17); !slices.Equal(got, want) {
				t.Fatalf("seed %d draw %d: Perm(17) = %v, want %v", seed, i, got, want)
			}
			child := src.Split()
			refChild := rand.New(rand.NewPCG(ref.Uint64(), ref.Uint64()))
			if got, want := child.Uint64(), refChild.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Split child = %#x, want %#x", seed, i, got, want)
			}
		}
	}
}

// New and Split build exactly one 16-byte Source each: the PCG lives
// inside it, not behind further pointers.
func TestNewSplitAllocs(t *testing.T) {
	var sink *Source
	if n := testing.AllocsPerRun(100, func() { sink = New(5) }); n != 1 {
		t.Fatalf("New: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = sink.Split() }); n != 1 {
		t.Fatalf("Split: %v allocs, want 1", n)
	}
}

// FillNoise's manually inlined ziggurat must stay draw-for-draw
// identical to two Normal calls per sample.
func TestFillNoiseMatchesNorm(t *testing.T) {
	a, b := New(99), New(99)
	const n = 4096
	xa := make([]complex128, n)
	xb := make([]complex128, n)
	a.FillNoise(xa, 1e-6)
	sigma := math.Sqrt(1e-6 / 2)
	for i := range xb {
		xb[i] += complex(sigma*b.Normal(), sigma*b.Normal())
	}
	for i := range xa {
		if xa[i] != xb[i] {
			t.Fatalf("sample %d: FillNoise %v != reference %v", i, xa[i], xb[i])
		}
	}
	// And the two sources must remain in lockstep afterwards.
	if a.Uint64() != b.Uint64() {
		t.Fatal("sources diverged after FillNoise")
	}
}

// TestIntNMatchesRand holds IntN to math/rand/v2's Rand.IntN on the
// same PCG, draw for draw: powers of two (the mask path), small and
// huge bounds (the rejection step runs when a product's low word falls
// under the bound), and the contention-window sizes the engine draws.
func TestIntNMatchesRand(t *testing.T) {
	ns := []int{1, 2, 3, 7, 64, 1 << 18, 262139, 1<<62 + 1, 3 << 61, math.MaxInt64, math.MaxInt64 - 1}
	for _, n := range ns {
		s := New(uint64(n))
		ref := *s
		r := rand.New(&ref.pcg)
		for k := 0; k < 20000; k++ {
			if got, want := s.IntN(n), r.IntN(n); got != want {
				t.Fatalf("IntN(%d) draw %d = %d, rand.IntN = %d", n, k, got, want)
			}
		}
	}
}
