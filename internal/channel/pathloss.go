// Package channel models the over-the-air substrate the HotNets'13
// testbed provided physically: distance-dependent path loss, block and
// correlated fading, additive white Gaussian noise, propagation delay,
// carrier frequency offset, multipath, and a multi-node Medium that ties
// node geometry to pairwise propagation paths (including the
// tag-reflection paths that make backscatter links monostatic).
//
// Conventions: path gains are LINEAR POWER gains (always <= 1 for a
// passive channel); complex channel coefficients are amplitude-domain, so
// a coefficient h scales sample power by |h|^2.
package channel

import (
	"fmt"
	"math"
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
	min := l.MinDistanceM
	if min <= 0 {
		min = 0.1
	}
	if d < min {
		d = min
	}
	d0 := l.RefDistanceM
	if d0 <= 0 {
		d0 = 1
	}
	n := l.Exponent
	if n <= 0 {
		n = 2
	}
	return l.RefGain * powPathLoss(d0/d, n)
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
	if !(y >= 1 && y <= 8 && x >= 0x1p-60 && x <= 0x1p60) {
		return math.Pow(x, y)
	}
	// y >= 1, so y-yi is exact (Sterbenz) and equals Modf's fraction.
	yi := int64(y)
	yf := y - float64(yi)
	a := 1.0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a = math.Exp(yf * math.Log(x))
	}
	for p := x; yi != 0; yi >>= 1 {
		if yi&1 == 1 {
			a *= p
		}
		p *= p
	}
	return a
}

// FixedGain is a PathLoss that ignores distance; useful in unit tests and
// calibrated-link experiments.
type FixedGain float64

// Gain implements PathLoss.
func (g FixedGain) Gain(float64) float64 { return float64(g) }

// PropagationDelaySamples returns the propagation delay over d metres in
// samples at the given sample rate.
func PropagationDelaySamples(d, sampleRate float64) float64 {
	return d / SpeedOfLight * sampleRate
}

// String implementations aid experiment logs.
func (f FreeSpace) String() string {
	return fmt.Sprintf("freespace(%.0f MHz)", f.FreqHz/1e6)
}

func (l LogDistance) String() string {
	return fmt.Sprintf("logdistance(n=%.1f)", l.Exponent)
}
