package phy

import (
	"fmt"

	"repro/internal/sigproc"
)

// OOK is the forward-link on-off-keying modem. Unlike textbook OOK, the
// "off" chip does not fully extinguish the carrier: the reader keeps
// (1-Depth) of the amplitude flowing so the tag stays powered and the
// backscatter feedback channel has a carrier to reflect during every
// chip — the same trick RFID readers' PIE encoding uses.
//
// The zero value modulates at 4 samples/chip, depth 0.75, amplitude 1.
type OOK struct {
	// SamplesPerChip sets the chip oversampling factor (default 4).
	SamplesPerChip int
	// Depth in (0, 1] is the modulation depth: low chips have amplitude
	// Amplitude*(1-Depth). Default 0.75.
	Depth float64
	// Amplitude is the high-chip amplitude (default 1).
	Amplitude float64
}

func (o OOK) sps() int {
	if o.SamplesPerChip <= 0 {
		return 4
	}
	return o.SamplesPerChip
}

func (o OOK) depth() float64 {
	if o.Depth <= 0 || o.Depth > 1 {
		return 0.75
	}
	return o.Depth
}

func (o OOK) amp() float64 {
	if o.Amplitude <= 0 {
		return 1
	}
	return o.Amplitude
}

// LevelHigh returns the amplitude of a high chip.
func (o OOK) LevelHigh() float64 { return o.amp() }

// LevelLow returns the amplitude of a low chip.
func (o OOK) LevelLow() float64 { return o.amp() * (1 - o.depth()) }

// MeanPower returns the average transmit power assuming balanced chips.
func (o OOK) MeanPower() float64 {
	h, l := o.LevelHigh(), o.LevelLow()
	return (h*h + l*l) / 2
}

// SamplesPerChipN returns the effective oversampling factor.
func (o OOK) SamplesPerChipN() int { return o.sps() }

// AppendChips appends the baseband waveform for the given chips to dst
// and returns it. Chips are 0/1 values, one per byte.
func (o OOK) AppendChips(dst sigproc.IQ, chips []byte) sigproc.IQ {
	hi := complex(o.LevelHigh(), 0)
	lo := complex(o.LevelLow(), 0)
	n := o.sps()
	for _, c := range chips {
		v := lo
		if c&1 == 1 {
			v = hi
		}
		for i := 0; i < n; i++ {
			dst = append(dst, v)
		}
	}
	return dst
}

// AppendIdle appends nChips of unmodulated carrier at the high level,
// used for inter-frame gaps where the reader still powers the tag.
func (o OOK) AppendIdle(dst sigproc.IQ, nChips int) sigproc.IQ {
	hi := complex(o.LevelHigh(), 0)
	for i := 0; i < nChips*o.sps(); i++ {
		dst = append(dst, hi)
	}
	return dst
}

// NumSamples returns the waveform length for nChips chips.
func (o OOK) NumSamples(nChips int) int { return nChips * o.sps() }

// ChipLevels averages an envelope sample stream into per-chip levels,
// appending to dst and returning it. Trailing samples that do not fill a
// chip are ignored. The offset argument skips samples before the first
// chip boundary (from preamble sync).
func (o OOK) ChipLevels(env []float64, offset int, dst []float64) []float64 {
	return o.ChipLevelsGuard(env, offset, 0, dst)
}

// ChipLevelsGuard is ChipLevels with a guard interval: the first
// guard fraction (in [0, 0.5)) of each chip's samples is skipped before
// averaging. Receivers whose envelope detector has a slow RC use the
// guard to avoid the inter-chip transition smear.
func (o OOK) ChipLevelsGuard(env []float64, offset int, guard float64, dst []float64) []float64 {
	n := o.sps()
	if offset < 0 {
		offset = 0
	}
	skip := 0
	if guard > 0 {
		if guard >= 0.5 {
			guard = 0.5
		}
		skip = int(guard * float64(n))
		if skip >= n {
			skip = n - 1
		}
	}
	for i := offset; i+n <= len(env); i += n {
		var s float64
		for _, v := range env[i+skip : i+n] {
			s += v
		}
		dst = append(dst, s/float64(n-skip))
	}
	return dst
}

// SliceThreshold returns the decision threshold midway between the two
// chip levels, scaled by the given channel amplitude gain.
func (o OOK) SliceThreshold(channelAmp float64) float64 {
	return (o.LevelHigh() + o.LevelLow()) / 2 * channelAmp
}

// String describes the modem configuration.
func (o OOK) String() string {
	return fmt.Sprintf("ook(sps=%d depth=%.2f amp=%.2f)", o.sps(), o.depth(), o.amp())
}
