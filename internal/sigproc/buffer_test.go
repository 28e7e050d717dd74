package sigproc

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestPowerConstant(t *testing.T) {
	x := NewIQ(100).Fill(complex(3, 4)) // |x| = 5, power 25
	if got := x.Power(); !almostEq(got, 25, eps) {
		t.Fatalf("Power = %g, want 25", got)
	}
	if got := x.RMS(); !almostEq(got, 5, eps) {
		t.Fatalf("RMS = %g, want 5", got)
	}
	if got := x.Energy(); !almostEq(got, 2500, eps) {
		t.Fatalf("Energy = %g, want 2500", got)
	}
}

func TestPowerEmpty(t *testing.T) {
	var x IQ
	if x.Power() != 0 || x.RMS() != 0 || x.Energy() != 0 {
		t.Fatal("empty buffer should have zero power/rms/energy")
	}
	if x.Mean() != 0 {
		t.Fatal("empty buffer mean should be 0")
	}
}

func TestMean(t *testing.T) {
	x := IQ{1 + 1i, 3 + 3i}
	if got := x.Mean(); got != 2+2i {
		t.Fatalf("Mean = %v, want (2+2i)", got)
	}
}

func TestScaleAddSubMul(t *testing.T) {
	x := IQ{1, 2, 3}
	x.Scale(2)
	if x[2] != 6 {
		t.Fatalf("Scale: got %v", x)
	}
	y := IQ{1, 1, 1}
	x.Add(y)
	if x[0] != 3 || x[2] != 7 {
		t.Fatalf("Add: got %v", x)
	}
	x.Sub(y)
	if x[0] != 2 {
		t.Fatalf("Sub: got %v", x)
	}
	x.Mul(IQ{2, 2, 2})
	if x[0] != 4 {
		t.Fatalf("Mul: got %v", x)
	}
	x.ScaleReal(0.5)
	if x[0] != 2 {
		t.Fatalf("ScaleReal: got %v", x)
	}
}

func TestAddLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	IQ{1}.Add(IQ{1, 2})
}

func TestCloneIndependent(t *testing.T) {
	x := IQ{1, 2}
	y := x.Clone()
	y[0] = 99
	if x[0] != 1 {
		t.Fatal("Clone must not alias the source")
	}
}

func TestEnvelope(t *testing.T) {
	x := IQ{3 + 4i, 0, 1}
	env := x.Envelope(nil)
	want := []float64{5, 0, 1}
	for i := range want {
		if !almostEq(env[i], want[i], eps) {
			t.Fatalf("Envelope[%d] = %g, want %g", i, env[i], want[i])
		}
	}
	sq := x.EnvelopeSq(nil)
	if !almostEq(sq[0], 25, eps) {
		t.Fatalf("EnvelopeSq[0] = %g, want 25", sq[0])
	}
}

func TestEnvelopeReuseBuffer(t *testing.T) {
	x := IQ{1, 2, 3}
	buf := make([]float64, 8)
	env := x.Envelope(buf)
	if len(env) != 3 {
		t.Fatalf("len = %d, want 3", len(env))
	}
	if &env[0] != &buf[0] {
		t.Fatal("Envelope should reuse a sufficiently large buffer")
	}
}

func TestPeakAbs(t *testing.T) {
	x := IQ{1, -5i, 2}
	if got := x.PeakAbs(); !almostEq(got, 5, eps) {
		t.Fatalf("PeakAbs = %g, want 5", got)
	}
}

func TestDBRoundTrip(t *testing.T) {
	for _, lin := range []float64{0.001, 1, 42, 1e6} {
		if got := math.Pow(10, DB(lin)/10); !almostEq(got, lin, 1e-9) {
			t.Fatalf("10^(DB(%g)/10) = %g", lin, got)
		}
	}
	if got := DB(1000); !almostEq(got, 30, eps) {
		t.Fatalf("DB(1000) = %g, want 30", got)
	}
}

func TestAmplitudeForPower(t *testing.T) {
	if got := AmplitudeForPower(25); !almostEq(got, 5, eps) {
		t.Fatalf("got %g, want 5", got)
	}
	if AmplitudeForPower(-1) != 0 || AmplitudeForPower(0) != 0 {
		t.Fatal("non-positive power must map to zero amplitude")
	}
}

func TestMeanVariance(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := MeanFloat(x); !almostEq(got, 2.5, eps) {
		t.Fatalf("mean = %g", got)
	}
	if got := Variance(x); !almostEq(got, 1.25, eps) {
		t.Fatalf("variance = %g", got)
	}
	if MeanFloat(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty stats should be zero")
	}
}

// Property: scaling by g scales power by |g|^2.
func TestPowerScalingProperty(t *testing.T) {
	f := func(re, im int8, n uint8) bool {
		g := complex(float64(re)/16, float64(im)/16)
		x := NewIQ(int(n%32) + 1).Fill(1 + 1i)
		p0 := x.Power()
		x.Scale(g)
		want := p0 * real(g*cmplx.Conj(g))
		return almostEq(x.Power(), want, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: energy is additive over concatenation.
func TestEnergyAdditiveProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		mk := func(v []float64) IQ {
			x := make(IQ, len(v))
			for i, f := range v {
				if math.IsNaN(f) || math.IsInf(f, 0) {
					f = 0
				}
				x[i] = complex(math.Mod(f, 100), 0)
			}
			return x
		}
		xa, xb := mk(a), mk(b)
		cat := append(xa.Clone(), xb...)
		return almostEq(cat.Energy(), xa.Energy()+xb.Energy(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The envelope's real-sample fast path must be bit-identical to the
// Hypot path: math.Hypot(re, 0) == math.Abs(re) exactly, including
// signed zeros, infinities and NaN.
func TestEnvelopeRealFastPathBitIdentical(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1.5, -2.25, 1e-300, -1e300,
		math.Inf(1), math.Inf(-1), math.NaN(), 0.1, -0.30000000000000004}
	x := make(IQ, len(vals))
	for i, v := range vals {
		x[i] = complex(v, 0)
	}
	env := x.Envelope(nil)
	for i, v := range vals {
		want := math.Hypot(v, 0)
		got := env[i]
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Fatalf("val %v: got %v, want NaN", v, got)
			}
			continue
		}
		if got != want {
			t.Fatalf("val %v: fast path %v != Hypot %v", v, got, want)
		}
	}
}

// TestEnvelopeMatchesScalar pins Envelope to the per-sample rule
// (math.Abs for a zero imaginary part, cmplx.Abs otherwise) bit for
// bit, with zeros, purely real samples and non-finite parts at every
// position of buffers of every length up to 19.
func TestEnvelopeMatchesScalar(t *testing.T) {
	nan := math.Float64frombits(0x7FF8000000000123)
	odd := []complex128{0, complex(-3, 0), complex(0, -2), complex(nan, 0), complex(1, math.Inf(-1)),
		complex(math.NaN(), 1), complex(-0.0, -0.0), complex(5e-324, 0)}
	for n := 0; n <= 19; n++ {
		for _, o := range odd {
			for pos := range n {
				x := make(IQ, n)
				for i := range x {
					x[i] = complex(float64(i)-7.5, 0.25*float64(i%5))
				}
				x[pos] = o
				env := x.Envelope(nil)
				for i, v := range x {
					want := cmplx.Abs(v)
					if imag(v) == 0 {
						want = math.Abs(real(v))
					}
					if math.Float64bits(env[i]) != math.Float64bits(want) {
						t.Fatalf("n=%d %v at %d: Envelope[%d] = %v, want %v", n, o, pos, i, env[i], want)
					}
				}
			}
		}
	}
}
