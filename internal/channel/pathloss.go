// Package channel models the over-the-air substrate the HotNets'13
// testbed provided physically: distance-dependent path loss (free space
// and log-distance, with a batch form for the scenario engine), block
// and correlated fading (static, Rayleigh, Rician and Gauss-Markov
// faders), and the directed propagation Path that applies gain, fading,
// fractional-sample delay and carrier frequency offset to a block of
// samples.
//
// Conventions: path gains are LINEAR POWER gains (always <= 1 for a
// passive channel); complex channel coefficients are amplitude-domain, so
// a coefficient h scales sample power by |h|^2.
package channel

import (
	"fmt"
	"math"

	"repro/internal/vecmath"
)

// SpeedOfLight in metres per second.
const SpeedOfLight = 2.99792458e8

// PathLoss converts a link distance into a linear power gain.
type PathLoss interface {
	// Gain returns the linear power gain at the given distance in metres.
	Gain(distanceM float64) float64
}

// FreeSpace is the Friis free-space path loss at a carrier frequency.
// Distances below MinDistanceM (default 0.1 m) are clamped to avoid the
// unphysical near-field singularity.
type FreeSpace struct {
	FreqHz       float64
	MinDistanceM float64
}

// Gain implements PathLoss: (lambda / (4*pi*d))^2.
func (f FreeSpace) Gain(d float64) float64 {
	min := f.MinDistanceM
	if min <= 0 {
		min = 0.1
	}
	if d < min {
		d = min
	}
	lambda := SpeedOfLight / f.FreqHz
	a := lambda / (4 * math.Pi * d)
	return a * a
}

// LogDistance is the log-distance path loss model
// PL(d) = PL(d0) + 10*n*log10(d/d0), expressed as a linear gain. It is
// the standard model for indoor backscatter deployments (n typically
// 2 to 4).
type LogDistance struct {
	// RefGain is the linear power gain at the reference distance,
	// e.g. FreeSpace gain at 1 m.
	RefGain float64
	// RefDistanceM is the reference distance in metres (default 1).
	RefDistanceM float64
	// Exponent is the path loss exponent n (default 2).
	Exponent float64
	// MinDistanceM clamps small distances (default 0.1 m).
	MinDistanceM float64
}

// NewLogDistance returns a log-distance model anchored to free space at
// 1 m for the given carrier frequency, with path loss exponent n.
func NewLogDistance(freqHz, n float64) LogDistance {
	return LogDistance{
		RefGain:      FreeSpace{FreqHz: freqHz}.Gain(1),
		RefDistanceM: 1,
		Exponent:     n,
	}
}

// Gain implements PathLoss.
func (l LogDistance) Gain(d float64) float64 {
	min, d0, n := l.params()
	return l.RefGain * powPathLoss(ratio(d, min, d0), n)
}

// params returns the clamp distance, reference distance and exponent
// with their defaults applied.
func (l LogDistance) params() (min, d0, n float64) {
	min, d0, n = l.MinDistanceM, l.RefDistanceM, l.Exponent
	if min <= 0 {
		min = 0.1
	}
	if d0 <= 0 {
		d0 = 1
	}
	if n <= 0 {
		n = 2
	}
	return min, d0, n
}

// ratio returns d0/d with d clamped up to min.
func ratio(d, min, d0 float64) float64 {
	if d < min {
		d = min
	}
	return d0 / d
}

// GainsInto sets dst[k] = l.Gain(d[k]) for every k, bit for bit; dst
// must be at least as long as d. It performs each element's Gain
// operations in the same order, but pass by pass over the whole batch:
// every Log, then every Exp (both through the vecmath kernels, four
// lanes at a time), then the integer-power products. A ratio outside
// powPathLoss's fast domain falls back to it element by element, and
// an exponent outside [1, 8] falls back to Gain.
func (l LogDistance) GainsInto(dst, d []float64) {
	minD, d0, n := l.params()
	dst = dst[:len(d)]
	if !powFast(n) {
		for k, dk := range d {
			dst[k] = l.Gain(dk)
		}
		return
	}
	yi, yf := powSplit(n)
	if yf != 0 {
		for k, dk := range d {
			dst[k] = ratio(dk, minD, d0)
		}
		for k := 0; k < len(dst); {
			k += vecmath.Log(dst[k:], dst[k:])
			for end := min(k+4, len(dst)); k < end; k++ {
				dst[k] = math.Log(dst[k])
			}
		}
		for k, lx := range dst {
			dst[k] = yf * lx
		}
		for k := 0; k < len(dst); {
			k += vecmath.Exp(dst[k:], dst[k:])
			for end := min(k+4, len(dst)); k < end; k++ {
				dst[k] = math.Exp(dst[k])
			}
		}
	} else {
		for k := range dst {
			dst[k] = 1
		}
	}
	// The ratios are cheap to recompute; the clamp and the division
	// are exact.
	for k, dk := range d {
		x := ratio(dk, minD, d0)
		if x >= 0x1p-60 && x <= 0x1p60 {
			dst[k] = l.RefGain * mulPow(dst[k], x, yi)
		} else {
			dst[k] = l.RefGain * powPathLoss(x, n)
		}
	}
}

// powPathLoss returns math.Pow(x, y), bit for bit, without pow's
// generic overhead. For a positive, finite x and y in [1, 8], math.Pow
// folds y into yi+yf with yf in (-0.5, 0.5], takes Exp(yf*Log(x)), and
// multiplies in x^yi by repeated squaring of Frexp's mantissa, keeping
// the powers of two aside for a final Ldexp. That rescaling is exact
// while every intermediate stays a normal float64, and for x within
// 2^±60 the largest intermediate, x^16, lies within 2^±960. So this
// kernel performs the same roundings on x itself: the same Exp and Log,
// then the same products in the same order. Log-distance path loss at
// any physical distance lands here: Scenario.Validate bounds the
// exponent to [1, 8] and the MinDistanceM clamp bounds d0/d above. Any
// other input takes math.Pow.
func powPathLoss(x, y float64) float64 {
	if !(powFast(y) && x >= 0x1p-60 && x <= 0x1p60) {
		return math.Pow(x, y)
	}
	yi, yf := powSplit(y)
	a := 1.0
	if yf != 0 {
		a = math.Exp(yf * math.Log(x))
	}
	return mulPow(a, x, yi)
}

// powFast reports whether exponent y is in powPathLoss's domain.
func powFast(y float64) bool { return y >= 1 && y <= 8 }

// powSplit folds an exponent y in [1, 8] into yi+yf with yf in
// (-0.5, 0.5], as math.Pow does. y >= 1, so y-yi is exact (Sterbenz)
// and equals Modf's fraction.
func powSplit(y float64) (yi int64, yf float64) {
	yi = int64(y)
	yf = y - float64(yi)
	if yf > 0.5 {
		yf--
		yi++
	}
	return yi, yf
}

// mulPow returns a*x^yi, multiplying in x^yi by repeated squaring in
// math.Pow's order.
func mulPow(a, x float64, yi int64) float64 {
	for p := x; yi != 0; yi >>= 1 {
		if yi&1 == 1 {
			a *= p
		}
		p *= p
	}
	return a
}

// String describes the model in experiment logs.
func (l LogDistance) String() string {
	return fmt.Sprintf("logdistance(n=%.1f)", l.Exponent)
}
