package vecmath

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
)

// paths runs f once on the dispatch the CPU chose and once on the
// generic bodies, restoring the switches afterwards.
func paths(t testing.TB, f func(t testing.TB, path string)) {
	f(t, fmt.Sprintf("dispatch(avx2=%v,exp=%v,erfc=%v)", useAVX2, useExp, useErfc))
	avx2, exp, erfc := useAVX2, useExp, useErfc
	useAVX2, useExp, useErfc = false, false, false
	defer func() { useAVX2, useExp, useErfc = avx2, exp, erfc }()
	f(t, "generic")
}

// edge holds the inputs next to every branch of the scalar routines:
// signed zeros, denormals, infinities, NaN payloads, Log's f1 ==
// Sqrt2/2 boundary, Exp's overflow and denormal-result bounds, and
// Erfc's branch edges.
var edge = func() []float64 {
	bits := []uint64{
		0, 1 << 63, 1, 1<<63 | 1, 0x000FFFFFFFFFFFFF, 0x0008000000000000,
		0x7FF0000000000000, 0xFFF0000000000000,
		0x7FF8000000000001, 0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000000,
		0x7FFFFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF, 0x0010000000000000,
	}
	var v []float64
	for _, b := range bits {
		v = append(v, math.Float64frombits(b))
	}
	// Log's f1 <= Sqrt2/2 and f1 < Sqrt2/2 give the same bits at every
	// Sqrt2/2 * 2^e but e = 32, so that one is here.
	hs := 7.07106781186547524401e-01
	for _, e := range []int{-1074, -1060, -1022, -1, 0, 1, 5, 32, 1023} {
		x := math.Ldexp(hs, e)
		v = append(v, x, math.Nextafter(x, 0), math.Nextafter(x, 2))
	}
	for _, x := range []float64{
		expOverflow, math.Nextafter(expOverflow, 800), math.Nextafter(expOverflow, 0), 709.5, 710,
		-708.39, -708.4, -708.5, -709.09, -709.1, -720, -744.44, -745.13, -745.2, -748, -1e300,
		1022.5 / log2e, 1023.5 / log2e, -1022.5 / log2e, -1023.5 / log2e,
		0.5, 1, 2, math.E, -1, 1e-300, 1e300, math.Pi,
		0x1p-56, 0.25, 0.84375, 1.25, 1 / 0.35, 6, 28,
	} {
		v = append(v, x, -x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
	}
	return v
}()

// draw returns an input for the given trial: a positive ordinary value
// (every kernel's clean domain) in trial 0, a signed one in trials 1
// and 2, and from trial 3 on sometimes an edge value or raw bits.
func draw(r *rand.Rand, trial int) float64 {
	var v float64
	switch k := r.IntN(16); {
	case trial >= 3 && k == 0:
		return edge[r.IntN(len(edge))]
	case trial >= 3 && k == 1:
		return math.Float64frombits(r.Uint64())
	case k < 8:
		v = (r.Float64()*2 - 1) * 40
	case k < 12:
		v = (r.Float64()*2 - 1) * 1e-3
	default:
		v = math.Ldexp(r.Float64()*2-1, r.IntN(200)-100)
	}
	if trial == 0 {
		return math.Abs(v) + 0x1p-1000
	}
	return v
}

// prefix returns how many elements a kernel must write: the whole
// groups of four before the first group holding a special lane.
func prefix(n int, special func(i int) bool) int {
	k := 0
	for ; k+4 <= n; k += 4 {
		if special(k) || special(k+1) || special(k+2) || special(k+3) {
			break
		}
	}
	return k
}

func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

const sentinel = -12345.678

// kernel is one kernel under test, driven through float64 inputs: Abs
// pairs in[0][i] and in[1][i] as one complex value, and Div divides
// in[0] by in[1] with floor divFloor.
type kernel struct {
	name string
	// arity is the number of float64 inputs per element (1 or 2).
	arity int
	// run calls the kernel on in (arity slices of n) into dst.
	run func(dst []float64, in [][]float64) int
	// want is the scalar result and special its special-lane test.
	want    func(in [][]float64, i int) float64
	special func(in [][]float64, i int) bool
}

const divFloor = 1e-9

var kernels = []kernel{
	{"Log", 1,
		func(dst []float64, in [][]float64) int { return Log(dst, in[0]) },
		func(in [][]float64, i int) float64 { return math.Log(in[0][i]) },
		func(in [][]float64, i int) bool { return logSpecial(in[0][i]) }},
	{"Exp", 1,
		func(dst []float64, in [][]float64) int { return Exp(dst, in[0]) },
		func(in [][]float64, i int) float64 { return math.Exp(in[0][i]) },
		func(in [][]float64, i int) bool { return expSpecial(in[0][i]) }},
	{"Hypot", 2,
		func(dst []float64, in [][]float64) int { return Hypot(dst, in[0], in[1]) },
		func(in [][]float64, i int) float64 { return math.Hypot(in[0][i], in[1][i]) },
		func(in [][]float64, i int) bool { return hypotSpecial(in[0][i], in[1][i]) }},
	{"Abs", 2,
		func(dst []float64, in [][]float64) int { return Abs(dst, zip(in)) },
		func(in [][]float64, i int) float64 { return cmplx.Abs(complex(in[0][i], in[1][i])) },
		func(in [][]float64, i int) bool { return hypotSpecial(in[0][i], in[1][i]) }},
	{"Div", 2,
		func(dst []float64, in [][]float64) int { return Div(dst, in[0], in[1], divFloor) },
		func(in [][]float64, i int) float64 { return in[0][i] / in[1][i] },
		func(in [][]float64, i int) bool { return in[1][i] < divFloor }},
	{"Erfc", 1,
		func(dst []float64, in [][]float64) int { return Erfc(dst, in[0]) },
		func(in [][]float64, i int) float64 { return math.Erfc(in[0][i]) },
		func(in [][]float64, i int) bool { return false }},
}

// zip pairs in[0] and in[1] as complex values.
func zip(in [][]float64) []complex128 {
	z := make([]complex128, len(in[0]))
	for i := range z {
		z[i] = complex(in[0][i], in[1][i])
	}
	return z
}

// check runs k on in and asserts the contract: the count is the clean
// prefix, every written lane equals the scalar bits, and nothing past
// the count is written. It then repeats the call with dst aliasing the
// first input (Abs excepted: its input is complex).
func check(t testing.TB, path string, k kernel, in [][]float64, off int) {
	t.Helper()
	n := len(in[0])
	want := prefix(n, func(i int) bool { return k.special(in, i) })
	buf := make([]float64, n+off+1)
	for i := range buf {
		buf[i] = sentinel
	}
	dst := buf[off : off+n]
	got := k.run(dst, in)
	if got != want {
		t.Fatalf("%s %s n=%d off=%d: wrote %d, want %d (in %v)", path, k.name, n, off, got, want, in)
	}
	for i := range n {
		if i < got && !same(dst[i], k.want(in, i)) {
			t.Fatalf("%s %s n=%d off=%d lane %d in %v: got %v (%#x), want %v (%#x)", path, k.name, n, off, i,
				lane(in, i), dst[i], math.Float64bits(dst[i]), k.want(in, i), math.Float64bits(k.want(in, i)))
		}
		if i >= got && dst[i] != sentinel {
			t.Fatalf("%s %s n=%d off=%d: lane %d past the count was written", path, k.name, n, off, i)
		}
	}
	if buf[off+n] != sentinel {
		t.Fatalf("%s %s n=%d off=%d: wrote past the end", path, k.name, n, off)
	}
	if k.name == "Abs" {
		return
	}
	// Aliased: dst is the first input, at the same offset.
	alias := make([]float64, n+off)[off:]
	copy(alias, in[0])
	ain := append([][]float64{alias}, in[1:]...)
	if got := k.run(alias, ain); got != want {
		t.Fatalf("%s %s aliased n=%d off=%d: wrote %d, want %d", path, k.name, n, off, got, want)
	}
	for i := range n {
		w := in[0][i]
		if i < want {
			w = k.want(in, i)
		}
		if !same(alias[i], w) {
			t.Fatalf("%s %s aliased n=%d off=%d lane %d: got %v, want %v", path, k.name, n, off, i, alias[i], w)
		}
	}
}

func lane(in [][]float64, i int) []float64 {
	v := make([]float64, len(in))
	for j := range in {
		v[j] = in[j][i]
	}
	return v
}

// TestKernelsMatchMath checks every kernel on the CPU's dispatch and on
// the generic bodies: every length 0..67 at every offset mod 4, clean
// and with edge values and raw bit patterns mixed in, plus every edge
// value in every lane position of a group.
func TestKernelsMatchMath(t *testing.T) {
	paths(t, func(t testing.TB, path string) {
		r := rand.New(rand.NewPCG(7, 11))
		for _, k := range kernels {
			for n := 0; n <= 67; n++ {
				for off := range 4 {
					for trial := range 6 {
						in := make([][]float64, k.arity)
						for j := range in {
							in[j] = make([]float64, n)
							for i := range in[j] {
								in[j][i] = draw(r, trial)
							}
						}
						check(t, path, k, in, off)
					}
				}
			}
			// Every edge value (and pair of edge values) in every lane
			// of a group of four, behind one clean group.
			for a, ea := range edge {
				for pos := range 4 {
					in := make([][]float64, k.arity)
					for j := range in {
						in[j] = []float64{0.75, 1.5, 3, 6, 2.5, 0.125, 10, 40}
					}
					in[0][4+pos] = ea
					if k.arity == 2 {
						in[1][4+(pos+1)%4] = edge[(a*7+pos)%len(edge)]
						in[1][4+pos] = edge[(a*13+pos)%len(edge)]
					}
					check(t, path, k, in, pos)
				}
			}
		}
		// Random bit patterns, four lanes at a time.
		for range 20000 {
			for _, k := range kernels {
				in := make([][]float64, k.arity)
				for j := range in {
					in[j] = make([]float64, 4)
					for i := range in[j] {
						in[j][i] = math.Float64frombits(r.Uint64())
					}
				}
				check(t, path, k, in, 0)
			}
		}
	})
}

// TestExpDenseRanges compares Exp lane by lane over dense sweeps of the
// reduction's boundaries and the whole normal-result range.
func TestExpDenseRanges(t *testing.T) {
	paths(t, func(t testing.TB, path string) {
		x := make([]float64, 4096)
		dst := make([]float64, len(x))
		for _, span := range [][2]float64{{-708.5, -707}, {-5, 5}, {708, expOverflow}, {-700, 700}} {
			for i := range x {
				x[i] = span[0] + (span[1]-span[0])*float64(i)/float64(len(x)-1)
			}
			n := Exp(dst, x)
			if want := prefix(len(x), func(i int) bool { return expSpecial(x[i]) }); n != want {
				t.Fatalf("%s Exp over %v: wrote %d, want %d", path, span, n, want)
			}
			for i := range n {
				if !same(dst[i], math.Exp(x[i])) {
					t.Fatalf("%s Exp(%v) = %v, math.Exp = %v", path, x[i], dst[i], math.Exp(x[i]))
				}
			}
		}
	})
}

// expSeq is math.Exp's amd64 sequence for an x in the normal range,
// with (fused) or without FMA. The explicit conversions keep the
// compiler from fusing a product into a sum on its own.
func expSeq(x float64, fused bool) float64 {
	const (
		ln2U = 0.69314718055966295651160180568695068359375
		ln2L = 0.28235290563031577122588448175013436025525412068e-12
	)
	fma := func(a, b, c float64) float64 {
		if fused {
			return math.FMA(a, b, c)
		}
		return float64(a*b) + c
	}
	k := math.RoundToEven(float64(log2e * x))
	x = fma(-k, ln2U, x)
	x = fma(-k, ln2L, x)
	x = float64(x * 0.0625)
	p := 2.4801587301587301587e-5
	for _, c := range []float64{1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1} {
		p = fma(x, p, c)
	}
	x = float64(x * p)
	for range 3 {
		x = float64(x * float64(x+2))
	}
	x = fma(x+2, x, 1)
	return math.Ldexp(x, int(k))
}

// TestExpProbesDiscriminate asserts that the init-time self-check can
// see a math.Exp that took its non-FMA path: on every probe the FMA and
// non-FMA sequences round differently, and math.Exp is one of them.
func TestExpProbesDiscriminate(t *testing.T) {
	for _, b := range expProbes {
		x := math.Float64frombits(b)
		fused, plain := expSeq(x, true), expSeq(x, false)
		if same(fused, plain) {
			t.Errorf("probe %v: FMA and non-FMA sequences agree (%v)", x, fused)
		}
		if m := math.Exp(x); !same(m, fused) && !same(m, plain) {
			t.Errorf("probe %v: math.Exp = %v is neither sequence (%v, %v)", x, m, fused, plain)
		}
		if useExp && !same(math.Exp(x), fused) {
			t.Errorf("probe %v: vector Exp on, but math.Exp is not the FMA sequence", x)
		}
	}
}

// TestExpDispatch asserts that the vector Exp is on wherever it can be:
// a kernel that fails its own init-time check would otherwise leave
// every test passing on the generic body.
func TestExpDispatch(t *testing.T) {
	if !useAVX2 || !hasFMA() {
		t.Skip("no AVX2 and FMA on this build or CPU")
	}
	for _, b := range expProbes {
		if x := math.Float64frombits(b); !same(math.Exp(x), expSeq(x, true)) {
			t.Skip("math.Exp takes its non-FMA path in this process")
		}
	}
	if !useExp {
		t.Fatal("AVX2, FMA and an FMA math.Exp, but the vector Exp failed its check against math.Exp")
	}
}

func TestKernelsAllocFree(t *testing.T) {
	x := make([]float64, 512)
	y := make([]float64, 512)
	z := make([]complex128, 512)
	dst := make([]float64, 512)
	for i := range x {
		x[i], y[i] = float64(i+1)/64, float64(512-i)/32
		z[i] = complex(x[i], y[i])
	}
	paths(t, func(t testing.TB, path string) {
		if a := testing.AllocsPerRun(20, func() {
			Log(dst, x)
			Exp(dst, x)
			Hypot(dst, x, y)
			Abs(dst, z)
			Div(dst, x, y, divFloor)
			Erfc(dst, x)
		}); a != 0 {
			t.Errorf("%s: %v allocs per run, want 0", path, a)
		}
	})
}

// FuzzKernelsMatchMath feeds every kernel four lanes of fuzzed bits and
// compares against the scalar routine on both paths.
func FuzzKernelsMatchMath(f *testing.F) {
	f.Add(uint64(0), uint64(1<<63), uint64(0x7FF8000000000001), uint64(0x3FE6A09E667F3BCD))
	f.Add(math.Float64bits(-745.2), math.Float64bits(709.78), math.Float64bits(1e-310), math.Float64bits(2))
	f.Fuzz(func(t *testing.T, a, b, c, d uint64) {
		v := []float64{math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c), math.Float64frombits(d)}
		w := []float64{v[3], v[2], v[1], v[0]}
		paths(t, func(t testing.TB, path string) {
			for _, k := range kernels {
				in := [][]float64{v, w}[:k.arity]
				check(t, path, k, in, 0)
			}
		})
	})
}

func benchInputs() (x, y []float64, z []complex128) {
	const n = 512
	r := rand.New(rand.NewPCG(1, 2))
	x, y, z = make([]float64, n), make([]float64, n), make([]complex128, n)
	for i := range x {
		x[i] = (r.Float64() - 0.5) * 60
		y[i] = (r.Float64() - 0.5) * 60
		z[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x, y, z
}

// The kernel benchmarks each time one kernel against the math loop it
// replaces, at 512 elements (one derive block).

func BenchmarkLog(b *testing.B) {
	x, _, _ := benchInputs()
	for i := range x {
		x[i] = math.Abs(x[i]) + 1e-3
	}
	dst := make([]float64, len(x))
	b.Run("kernel", func(b *testing.B) {
		for range b.N {
			Log(dst, x)
		}
	})
	b.Run("math", func(b *testing.B) {
		for range b.N {
			for i, v := range x {
				dst[i] = math.Log(v)
			}
		}
	})
}

func BenchmarkExp(b *testing.B) {
	x, _, _ := benchInputs()
	dst := make([]float64, len(x))
	b.Run("kernel", func(b *testing.B) {
		for range b.N {
			Exp(dst, x)
		}
	})
	b.Run("math", func(b *testing.B) {
		for range b.N {
			for i, v := range x {
				dst[i] = math.Exp(v)
			}
		}
	})
}

func BenchmarkHypot(b *testing.B) {
	x, y, _ := benchInputs()
	dst := make([]float64, len(x))
	b.Run("kernel", func(b *testing.B) {
		for range b.N {
			Hypot(dst, x, y)
		}
	})
	b.Run("math", func(b *testing.B) {
		for range b.N {
			for i, v := range x {
				dst[i] = math.Hypot(v, y[i])
			}
		}
	})
}

func BenchmarkAbs(b *testing.B) {
	_, _, z := benchInputs()
	dst := make([]float64, len(z))
	b.Run("kernel", func(b *testing.B) {
		for range b.N {
			Abs(dst, z)
		}
	})
	b.Run("math", func(b *testing.B) {
		for range b.N {
			for i, v := range z {
				dst[i] = cmplx.Abs(v)
			}
		}
	})
}

// TestErfcDenseRanges compares Erfc lane by lane over dense sweeps
// across every branch edge, both signs, so each group mixes branches.
func TestErfcDenseRanges(t *testing.T) {
	paths(t, func(t testing.TB, path string) {
		x := make([]float64, 1031)
		dst := make([]float64, len(x))
		for _, span := range [][2]float64{{-30, 30}, {-7, 7}, {-1.5, 1.5}, {-1e-16, 1e-16}, {27, 29}} {
			for i := range x {
				x[i] = span[0] + (span[1]-span[0])*float64(i)/float64(len(x)-1)
			}
			n := Erfc(dst, x)
			if n != len(x)&^3 {
				t.Fatalf("%s Erfc over %v: wrote %d, want %d", path, span, n, len(x)&^3)
			}
			for i := range n {
				if !same(dst[i], math.Erfc(x[i])) {
					t.Fatalf("%s Erfc(%v) = %v, math.Erfc = %v", path, x[i], dst[i], math.Erfc(x[i]))
				}
			}
		}
	})
}

func BenchmarkErfc(b *testing.B) {
	x, _, _ := benchInputs()
	for i := range x {
		x[i] /= 10 // every branch: |x| up to 3
	}
	dst := make([]float64, len(x))
	b.Run("kernel", func(b *testing.B) {
		for range b.N {
			Erfc(dst, x)
		}
	})
	b.Run("math", func(b *testing.B) {
		for range b.N {
			for i, v := range x {
				dst[i] = math.Erfc(v)
			}
		}
	})
}
