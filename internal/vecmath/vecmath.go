// Package vecmath holds the batch kernels behind the link-budget and
// envelope passes: Log, Exp, Hypot, complex Abs, a floor-aware Div and
// Erfc.
//
// Every element a kernel writes equals, bit for bit, what the scalar
// routine it stands for returns in the running process (math.Log,
// math.Exp, math.Hypot, cmplx.Abs, x/y, math.Erfc). On amd64 with AVX2 the
// kernels run four float64 lanes at a time in assembly that performs
// the same operations in the same order as Go's own amd64 math
// routines, which are straight-line code; Exp also needs FMA, because
// math.Exp takes its FMA path when the CPU has one, and an init-time
// check against math.Exp turns the vector Exp off on any mismatch.
// Erfc is branchy pure Go in math, so its kernel is Go too: it groups
// the lanes by branch and sends the tail branches' Exps through Exp
// (erfc.go). On other architectures, and under the purego build tag,
// each kernel is a plain loop over math.
//
// # Contract
//
// A kernel works through its inputs in groups of four elements from
// the start. It returns how many elements it wrote, a multiple of 4,
// and stops before the first group holding a special lane, or before a
// last partial group. It never writes that group, so dst may be an
// input slice itself (the same elements, not a shifted view). The
// special lanes are the inputs the vector code does not evaluate:
//
//	Log    x not in (0, +Inf): ±0, negatives, ±Inf, NaN
//	Exp    x NaN or above the overflow bound, or a result outside
//	       the normal range (2^k with k outside [-1022, 1023])
//	Hypot  p or q infinite or NaN
//	Abs    a real or imaginary part infinite or NaN
//	Div    y < floor
//	Erfc   none: every lane is evaluated
//
// Both the assembly and the generic path stop at the same group, so the
// count does not depend on the CPU. The caller finishes that group (or
// the tail) with scalar code and calls the kernel again past it:
//
//	for k := 0; k < len(x); {
//		k += vecmath.Log(dst[k:], x[k:])
//		for end := min(k+4, len(x)); k < end; k++ {
//			dst[k] = math.Log(x[k])
//		}
//	}
//
// dst and a second input (Hypot's q, Div's y) must be at least as long
// as the first input. The kernels do not allocate.
package vecmath

import (
	"math"
	"math/cmplx"
)

// The dispatch switches, set once at init by the amd64 build from
// CPUID (and, for Exp, a check against math.Exp) and left false by
// every other build. The tests flip them to run the generic bodies.
var (
	useAVX2 bool // Log, Hypot, Abs, Div
	useExp  bool // Exp: AVX2, FMA and agreement with math.Exp
	useErfc bool // Erfc's grouped body: amd64, where gc fuses no multiply-add
)

// Log sets dst[k] = math.Log(x[k]) over the leading groups of four
// with no special lane and returns how many elements it wrote.
func Log(dst, x []float64) int {
	dst = dst[:len(x)]
	if useAVX2 {
		return logAVX2(dst, x)
	}
	return logGeneric(dst, x)
}

// Exp sets dst[k] = math.Exp(x[k]) over the leading groups of four
// with no special lane and returns how many elements it wrote.
func Exp(dst, x []float64) int {
	dst = dst[:len(x)]
	if useExp {
		return expAVX2(dst, x)
	}
	return expGeneric(dst, x)
}

// Hypot sets dst[k] = math.Hypot(p[k], q[k]) over the leading groups
// of four with no special lane and returns how many elements it wrote.
func Hypot(dst, p, q []float64) int {
	dst, q = dst[:len(p)], q[:len(p)]
	if useAVX2 {
		return hypotAVX2(dst, p, q)
	}
	return hypotGeneric(dst, p, q)
}

// Abs sets dst[k] = cmplx.Abs(x[k]) over the leading groups of four
// with no special lane and returns how many elements it wrote. For a
// finite x[k] with a zero imaginary part that is math.Abs(real(x[k])).
func Abs(dst []float64, x []complex128) int {
	dst = dst[:len(x)]
	if useAVX2 {
		return absAVX2(dst, x)
	}
	return absGeneric(dst, x)
}

// Div sets dst[k] = x[k] / y[k] over the leading groups of four in
// which no y[k] < floor and returns how many elements it wrote.
func Div(dst, x, y []float64, floor float64) int {
	dst, y = dst[:len(x)], y[:len(x)]
	if useAVX2 {
		return divAVX2(dst, x, y, floor)
	}
	return divGeneric(dst, x, y, floor)
}

// The constants of Go's amd64 Exp, spelled as its assembly spells them.
const (
	expOverflow = 7.09782712893384e+02
	log2e       = 1.4426950408889634073599246810018920
)

// expProbes are inputs on which math.Exp's FMA and non-FMA sequences
// round differently, so a math.Exp that took its non-FMA path (no FMA
// in the CPU as Go sees it, or GODEBUG=cpu.fma=off) disagrees with the
// vector kernel on at least one of them.
var expProbes = [8]uint64{
	0xc07d6930d1f22b0d, 0x4085b2b63bcfcec1, 0x404405609038d7f3, 0x400440abdbeca839,
	0xc00878828b6a9ae8, 0x40202f4e9e6febbd, 0xc080526d59a612a9, 0x405a79d8901ea8fb,
}

// The special-lane predicates, shared by the generic bodies and the
// tests; the assembly tests the same conditions four lanes at a time.

func logSpecial(x float64) bool { return !(x > 0 && x <= math.MaxFloat64) }

// expSpecial mirrors the branches of Go's amd64 Exp: not finite, above
// the overflow bound, or a rounded exponent k whose 2^k is not a
// normal float64.
func expSpecial(x float64) bool {
	if !(x <= expOverflow) {
		return true
	}
	k := math.RoundToEven(x * log2e)
	return k < -1022 || k > 1023
}

func hypotSpecial(p, q float64) bool {
	return !(math.Abs(p) <= math.MaxFloat64 && math.Abs(q) <= math.MaxFloat64)
}

func logGeneric(dst, x []float64) int {
	n := 0
	for ; n+4 <= len(x); n += 4 {
		g := x[n : n+4]
		if logSpecial(g[0]) || logSpecial(g[1]) || logSpecial(g[2]) || logSpecial(g[3]) {
			break
		}
		for i, v := range g {
			dst[n+i] = math.Log(v)
		}
	}
	return n
}

func expGeneric(dst, x []float64) int {
	n := 0
	for ; n+4 <= len(x); n += 4 {
		g := x[n : n+4]
		if expSpecial(g[0]) || expSpecial(g[1]) || expSpecial(g[2]) || expSpecial(g[3]) {
			break
		}
		for i, v := range g {
			dst[n+i] = math.Exp(v)
		}
	}
	return n
}

func hypotGeneric(dst, p, q []float64) int {
	n := 0
	for ; n+4 <= len(p); n += 4 {
		gp, gq := p[n:n+4], q[n:n+4]
		if hypotSpecial(gp[0], gq[0]) || hypotSpecial(gp[1], gq[1]) ||
			hypotSpecial(gp[2], gq[2]) || hypotSpecial(gp[3], gq[3]) {
			break
		}
		for i := range gp {
			dst[n+i] = math.Hypot(gp[i], gq[i])
		}
	}
	return n
}

func absGeneric(dst []float64, x []complex128) int {
	n := 0
	for ; n+4 <= len(x); n += 4 {
		g := x[n : n+4]
		if hypotSpecial(real(g[0]), imag(g[0])) || hypotSpecial(real(g[1]), imag(g[1])) ||
			hypotSpecial(real(g[2]), imag(g[2])) || hypotSpecial(real(g[3]), imag(g[3])) {
			break
		}
		for i, v := range g {
			dst[n+i] = cmplx.Abs(v)
		}
	}
	return n
}

func divGeneric(dst, x, y []float64, floor float64) int {
	n := 0
	for ; n+4 <= len(x); n += 4 {
		gy := y[n : n+4]
		if gy[0] < floor || gy[1] < floor || gy[2] < floor || gy[3] < floor {
			break
		}
		for i, v := range gy {
			dst[n+i] = x[n+i] / v
		}
	}
	return n
}
