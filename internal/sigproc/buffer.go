// Package sigproc provides the digital signal processing substrate used by
// the full-duplex backscatter simulator: complex-baseband sample buffers,
// moving-average and single-pole lowpass filters, normalised correlation
// against a fixed pattern (Matcher), fractional delay, and bit packing and
// error counting.
//
// Everything operates on complex128 baseband samples. Allocation-heavy
// operations offer an in-place or destination-buffer form so the
// sample-level simulation loops can reuse buffers (decode-into-preallocated,
// in the style of gopacket's DecodingLayerParser).
package sigproc

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/vecmath"
)

// IQ is a buffer of complex baseband samples.
type IQ []complex128

// NewIQ returns a zeroed IQ buffer of n samples.
func NewIQ(n int) IQ { return make(IQ, n) }

// Clone returns a deep copy of the buffer.
func (x IQ) Clone() IQ {
	y := make(IQ, len(x))
	copy(y, x)
	return y
}

// Power returns the average sample power, sum(|x|^2)/N.
// It returns 0 for an empty buffer.
func (x IQ) Power() float64 {
	if len(x) == 0 {
		return 0
	}
	var p float64
	for _, v := range x {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	return p / float64(len(x))
}

// Energy returns the total sample energy, sum(|x|^2).
func (x IQ) Energy() float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

// RMS returns the root-mean-square amplitude of the buffer.
func (x IQ) RMS() float64 { return math.Sqrt(x.Power()) }

// Mean returns the complex mean of the buffer (0 for an empty buffer).
func (x IQ) Mean() complex128 {
	if len(x) == 0 {
		return 0
	}
	var s complex128
	for _, v := range x {
		s += v
	}
	return s / complex(float64(len(x)), 0)
}

// Scale multiplies every sample by the scalar g in place and returns x.
func (x IQ) Scale(g complex128) IQ {
	for i := range x {
		x[i] *= g
	}
	return x
}

// ScaleReal multiplies every sample by the real gain g in place and returns x.
func (x IQ) ScaleReal(g float64) IQ {
	for i := range x {
		x[i] = complex(real(x[i])*g, imag(x[i])*g)
	}
	return x
}

// Add accumulates y into x element-wise in place and returns x.
// It panics if the lengths differ.
func (x IQ) Add(y IQ) IQ {
	if len(x) != len(y) {
		panic(fmt.Sprintf("sigproc: Add length mismatch %d != %d", len(x), len(y)))
	}
	for i := range x {
		x[i] += y[i]
	}
	return x
}

// Sub subtracts y from x element-wise in place and returns x.
// It panics if the lengths differ.
func (x IQ) Sub(y IQ) IQ {
	if len(x) != len(y) {
		panic(fmt.Sprintf("sigproc: Sub length mismatch %d != %d", len(x), len(y)))
	}
	for i := range x {
		x[i] -= y[i]
	}
	return x
}

// Mul multiplies x by y element-wise in place and returns x.
// It panics if the lengths differ.
func (x IQ) Mul(y IQ) IQ {
	if len(x) != len(y) {
		panic(fmt.Sprintf("sigproc: Mul length mismatch %d != %d", len(x), len(y)))
	}
	for i := range x {
		x[i] *= y[i]
	}
	return x
}

// Zero clears the buffer in place and returns x.
func (x IQ) Zero() IQ {
	for i := range x {
		x[i] = 0
	}
	return x
}

// Fill sets every sample to v in place and returns x.
func (x IQ) Fill(v complex128) IQ {
	for i := range x {
		x[i] = v
	}
	return x
}

// Envelope writes |x[i]| into dst and returns it. If dst is nil or too
// short a new slice is allocated. The vecmath.Abs kernel takes four
// samples at a time; a group it leaves (one with an infinite or NaN
// part, or the short tail) is finished here. Purely real samples (a transmit
// waveform before any channel) take math.Abs there: for a finite part
// math.Hypot(re, 0) is exactly math.Abs(re), so the kernel agrees.
func (x IQ) Envelope(dst []float64) []float64 {
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	for i := 0; i < len(x); {
		i += vecmath.Abs(dst[i:], x[i:])
		for end := min(i+4, len(x)); i < end; i++ {
			if v := x[i]; imag(v) == 0 {
				dst[i] = math.Abs(real(v))
			} else {
				dst[i] = cmplx.Abs(v)
			}
		}
	}
	return dst
}

// EnvelopeSq writes |x[i]|^2 into dst and returns it. Squared envelopes
// avoid the sqrt and model a square-law (diode) detector.
func (x IQ) EnvelopeSq(dst []float64) []float64 {
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = real(v)*real(v) + imag(v)*imag(v)
	}
	return dst
}

// PeakAbs returns the maximum |x[i]| over the buffer (0 if empty).
func (x IQ) PeakAbs() float64 {
	var m float64
	for _, v := range x {
		a := real(v)*real(v) + imag(v)*imag(v)
		if a > m {
			m = a
		}
	}
	return math.Sqrt(m)
}

// DB converts a linear power ratio to decibels.
func DB(lin float64) float64 { return 10 * math.Log10(lin) }

// AmplitudeForPower returns the amplitude whose square is the given power.
func AmplitudeForPower(p float64) float64 {
	if p <= 0 {
		return 0
	}
	return math.Sqrt(p)
}

// MeanFloat returns the arithmetic mean of a real slice (0 if empty).
func MeanFloat(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of a real slice (0 if empty).
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := MeanFloat(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}
