//go:build !purego

package vecmath

import "math"

// The assembly kernels (vecmath_amd64.s). Each reads len(x) (or len(p))
// elements; the exported wrappers have already cut dst and the second
// input to that length.

//go:noescape
func logAVX2(dst, x []float64) int

//go:noescape
func expAVX2(dst, x []float64) int

//go:noescape
func hypotAVX2(dst, p, q []float64) int

//go:noescape
func absAVX2(dst []float64, x []complex128) int

//go:noescape
func divAVX2(dst, x, y []float64, floor float64) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func init() {
	avx2, fma := cpuFeatures()
	useAVX2 = avx2
	useExp = avx2 && fma && expMatchesMath()
	useErfc = true
}

// cpuFeatures reports whether the CPU and OS support AVX2 (YMM state
// saved by the OS) and FMA, read with CPUID and XGETBV.
func cpuFeatures() (avx2, fma bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false, false
	}
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	avx2 = ebx7&(1<<5) != 0
	return avx2, avx2 && ecx1&fmaBit != 0
}

// expMatchesMath runs the vector Exp on expProbes and reports whether
// every lane equals math.Exp's bits.
func expMatchesMath() bool {
	var x, got [len(expProbes)]float64
	for i, b := range expProbes {
		x[i] = math.Float64frombits(b)
	}
	if expAVX2(got[:], x[:]) != len(x) {
		return false
	}
	for i, v := range x {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(v)) {
			return false
		}
	}
	return true
}

// hasFMA reports whether the CPU supports FMA with AVX2.
func hasFMA() bool {
	_, fma := cpuFeatures()
	return fma
}
