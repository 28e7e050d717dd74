// Package feedback implements the backscatter feedback channel that makes
// the link full duplex: while the reader's forward transmission is in
// flight, the tag toggles its antenna between reflecting and absorbing at
// a rate far below the forward chip rate. At the reader the reflection
// appears as a slow amplitude ripple on top of a signal the reader knows
// exactly — its own transmission — so dividing the received envelope by
// the known transmit envelope and integrating over a feedback bit
// recovers the tag's bit with no self-interference cancellation hardware.
//
// The package provides both sides: the tag's state sequencing (which
// samples reflect) and the reader's normalise/integrate/slice decoder,
// plus the closed-form BER predictions the experiments compare against.
package feedback

import (
	"fmt"
	"math"

	"repro/internal/vecmath"
)

// Code selects the feedback line code.
type Code int

// Feedback line codes. Manchester is the default: each bit spends half
// its period reflecting and half absorbing, so the decoder compares the
// two halves and needs no amplitude threshold. NRZ doubles the averaging
// window per decision but requires threshold tracking (the ablation in
// BenchmarkAblationFeedbackCode quantifies the trade).
const (
	CodeManchester Code = iota
	CodeNRZ
)

// String returns the code name.
func (c Code) String() string {
	switch c {
	case CodeManchester:
		return "manchester"
	case CodeNRZ:
		return "nrz"
	default:
		return fmt.Sprintf("Code(%d)", int(c))
	}
}

// StateReflect and StateAbsorb are the tag antenna states, one per
// forward-rate sample.
const (
	StateAbsorb  byte = 0
	StateReflect byte = 1
)

// Config describes one feedback channel instance.
type Config struct {
	// SamplesPerBit is the number of forward-link samples spanned by one
	// feedback bit. Large values trade rate for SNR gain (the averaging
	// factor). Must be >= 2 for Manchester.
	SamplesPerBit int
	// Code is the feedback line code.
	Code Code
}

// AppendStates appends the per-sample antenna states for the given
// feedback bits to dst and returns it. Each bit occupies SamplesPerBit
// samples.
func (c Config) AppendStates(dst []byte, bits []byte) []byte {
	n := c.SamplesPerBit
	switch c.Code {
	case CodeNRZ:
		for _, b := range bits {
			s := StateAbsorb
			if b&1 == 1 {
				s = StateReflect
			}
			for i := 0; i < n; i++ {
				dst = append(dst, s)
			}
		}
	case CodeManchester:
		half := n / 2
		for _, b := range bits {
			first, second := StateAbsorb, StateReflect
			if b&1 == 1 {
				first, second = StateReflect, StateAbsorb
			}
			for i := 0; i < half; i++ {
				dst = append(dst, first)
			}
			for i := half; i < n; i++ {
				dst = append(dst, second)
			}
		}
	}
	return dst
}

// AppendIdleStates appends n absorb states (no feedback transmission;
// the tag harvests everything).
func AppendIdleStates(dst []byte, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, StateAbsorb)
	}
	return dst
}

// Normalize divides the received envelope by the known transmit envelope
// sample-by-sample, writing into dst (allocated if nil or short). Samples
// where the transmit envelope is below floor are copied from the previous
// normalised value (hold) to avoid noise blow-up; floor <= 0 uses 1e-9.
// This is the self-interference handling step: the reader's own signal
// becomes the unit level, and the tag's reflection rides on top of it.
func Normalize(rxEnv, txEnv []float64, floor float64, dst []float64) []float64 {
	if len(rxEnv) != len(txEnv) {
		panic(fmt.Sprintf("feedback: Normalize length mismatch %d != %d", len(rxEnv), len(txEnv)))
	}
	if cap(dst) < len(rxEnv) {
		dst = make([]float64, len(rxEnv))
	}
	dst = dst[:len(rxEnv)]
	if floor <= 0 {
		floor = 1e-9
	}
	// vecmath.Div divides four samples at a time up to a group holding a
	// sample below the floor; that group (or the short tail) is finished
	// here, holding the last normalised value.
	prev := 0.0
	for i := 0; i < len(rxEnv); {
		if n := vecmath.Div(dst[i:], rxEnv[i:], txEnv[i:], floor); n > 0 {
			i += n
			prev = dst[i-1]
		}
		for end := min(i+4, len(rxEnv)); i < end; i++ {
			if txEnv[i] < floor {
				dst[i] = prev
				continue
			}
			dst[i] = rxEnv[i] / txEnv[i]
			prev = dst[i]
		}
	}
	return dst
}

// DecodeBits slices feedback bits out of a normalised envelope stream,
// appending decoded bits to dst. The stream must start at a bit boundary.
// For NRZ, threshold separates reflect from absorb levels (use
// EstimateThreshold or a tracker); Manchester ignores it. Trailing
// samples that do not fill a bit are ignored.
func (c Config) DecodeBits(norm []float64, threshold float64, dst []byte) []byte {
	n := c.SamplesPerBit
	switch c.Code {
	case CodeNRZ:
		for i := 0; i+n <= len(norm); i += n {
			if meanOf(norm[i:i+n]) > threshold {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	case CodeManchester:
		half := n / 2
		for i := 0; i+n <= len(norm); i += n {
			a := meanOf(norm[i : i+half])
			b := meanOf(norm[i+half : i+n])
			if a > b {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	}
	return dst
}

// DecodeOne decodes a single feedback bit from exactly one bit period of
// normalised samples. It returns the bit and a soft decision margin
// (positive = confident); the margin is the level separation achieved in
// this bit, used by collision detectors as an anomaly signal.
func (c Config) DecodeOne(norm []float64, threshold float64) (bit byte, margin float64) {
	n := c.SamplesPerBit
	if len(norm) < n {
		return 0, 0
	}
	switch c.Code {
	case CodeNRZ:
		m := meanOf(norm[:n])
		if m > threshold {
			return 1, m - threshold
		}
		return 0, threshold - m
	case CodeManchester:
		half := n / 2
		a := meanOf(norm[:half])
		b := meanOf(norm[half:n])
		if a > b {
			return 1, a - b
		}
		return 0, b - a
	}
	return 0, 0
}

func meanOf(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// EstimateThreshold derives an NRZ slicing threshold from a training
// region known to contain both states (e.g. the tag's pilot pattern):
// the midpoint of the observed min/max of per-half-bit means.
func (c Config) EstimateThreshold(norm []float64) float64 {
	n := c.SamplesPerBit / 2
	if n < 1 {
		n = 1
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i+n <= len(norm); i += n {
		m := meanOf(norm[i : i+n])
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	if math.IsInf(lo, 1) {
		return 0
	}
	return (lo + hi) / 2
}

// QFunc is the Gaussian tail probability Q(x) = P(N(0,1) > x).
func QFunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// ManchesterBER predicts the BER of the Manchester decoder, whose
// decision variable is the difference of two independent half-bit
// averages: variance 2*sigma^2/(n/2), separation delta.
func ManchesterBER(delta, sigma float64, samplesPerBit int) float64 {
	if delta <= 0 || samplesPerBit < 2 {
		return 0.5
	}
	if sigma <= 0 {
		return 0
	}
	half := float64(samplesPerBit / 2)
	sd := sigma * math.Sqrt(2/half)
	return QFunc(delta / sd)
}

// ManchesterBERs sets dst[j] = ManchesterBER(delta[j], sigma[j],
// samplesPerBit) for every j, bit for bit, with the Erfc inside QFunc
// run through vecmath.Erfc. dst may be delta or sigma itself. sigma
// and dst must be at least as long as delta.
func ManchesterBERs(dst, delta, sigma []float64, samplesPerBit int) {
	dst, sigma = dst[:len(delta)], sigma[:len(delta)]
	// The early returns become Erfc arguments that give their values:
	// 0.5*Erfc(0) = 0.5 and 0.5*Erfc(+Inf) = 0.
	k := math.Sqrt(2 / float64(samplesPerBit/2))
	for j, d := range delta {
		switch {
		case d <= 0 || samplesPerBit < 2:
			dst[j] = 0
		case sigma[j] <= 0:
			dst[j] = math.Inf(1)
		default:
			dst[j] = d / (sigma[j] * k) / math.Sqrt2
		}
	}
	for j := 0; j < len(dst); {
		j += vecmath.Erfc(dst[j:], dst[j:])
		for end := min(j+4, len(dst)); j < end; j++ {
			dst[j] = math.Erfc(dst[j])
		}
	}
	for j, e := range dst {
		dst[j] = 0.5 * e
	}
}
