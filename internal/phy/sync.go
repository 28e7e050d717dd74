package phy

import (
	"repro/internal/sigproc"
)

// Preamble chips: an alternating warm-up that trains the tag's threshold
// tracker, followed by a 13-chip Barker sequence whose sharp
// autocorrelation pins down the frame start to one sample.
var (
	// barker13 is the length-13 Barker code.
	barker13 = []byte{1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1}
)

// DefaultPreambleChips returns the standard preamble chip sequence:
// warmup alternating chips followed by the Barker-13 sync word.
func DefaultPreambleChips(warmupChips int) []byte {
	if warmupChips < 0 {
		warmupChips = 0
	}
	out := make([]byte, 0, warmupChips+len(barker13))
	for i := 0; i < warmupChips; i++ {
		out = append(out, byte((i+1)%2)) // ...1,0,1,0 ending on 0 before barker
	}
	return append(out, barker13...)
}

// PreambleTemplate renders the expected envelope waveform of the given
// preamble chips under the modem o, for correlation against a received
// envelope.
func PreambleTemplate(o OOK, chips []byte) []float64 {
	hi, lo := o.LevelHigh(), o.LevelLow()
	n := o.SamplesPerChipN()
	out := make([]float64, 0, len(chips)*n)
	for _, c := range chips {
		v := lo
		if c&1 == 1 {
			v = hi
		}
		for i := 0; i < n; i++ {
			out = append(out, v)
		}
	}
	return out
}

// SyncResult reports a preamble detection.
type SyncResult struct {
	// Start is the sample index of the first payload sample (immediately
	// after the preamble).
	Start int
	// PeakIndex is the sample index where the template matched.
	PeakIndex int
	// Corr is the normalised correlation at the peak, in [-1, 1].
	Corr float64
}

// PreambleDetector is a reusable preamble correlator: the template's
// normalised-correlation state is precomputed once and the correlation
// scratch is reused across calls, so per-frame detection does not
// allocate. One detector per receiver; not safe for concurrent use.
type PreambleDetector struct {
	tpl  []float64
	m    *sigproc.Matcher
	corr []float64
}

// NewPreambleDetector returns a detector for the given template
// envelope (see PreambleTemplate). The template slice is retained.
func NewPreambleDetector(template []float64) *PreambleDetector {
	return &PreambleDetector{tpl: template, m: sigproc.NewMatcher(template)}
}

// Template returns the template envelope the detector was built with.
func (d *PreambleDetector) Template() []float64 { return d.tpl }

// Detect searches a received envelope for the preamble template using
// normalised cross-correlation (amplitude-invariant, so it works at any
// channel gain). minCorr sets the detection threshold; 0.7 is a
// sensible default. The second return value reports whether a peak
// exceeding minCorr was found.
func (d *PreambleDetector) Detect(env []float64, minCorr float64) (SyncResult, bool) {
	if len(d.tpl) == 0 || len(env) < len(d.tpl) {
		return SyncResult{}, false
	}
	d.corr = d.m.Correlate(env, d.corr[:0])
	peak := sigproc.PeakIndex(d.corr)
	if peak < 0 || d.corr[peak] < minCorr {
		return SyncResult{}, false
	}
	return SyncResult{
		Start:     peak + len(d.tpl),
		PeakIndex: peak,
		Corr:      d.corr[peak],
	}, true
}

// EstimateChannelAmp estimates the channel amplitude gain from the
// preamble portion of a received envelope, given the known transmitted
// template. It uses the ratio of mean received to mean transmitted
// envelope, which is unbiased for any chip mix.
func EstimateChannelAmp(env, template []float64, peakIndex int) float64 {
	if peakIndex < 0 || peakIndex+len(template) > len(env) || len(template) == 0 {
		return 0
	}
	rx := sigproc.MeanFloat(env[peakIndex : peakIndex+len(template)])
	tx := sigproc.MeanFloat(template)
	if tx == 0 {
		return 0
	}
	return rx / tx
}
