package sigproc

import "math"

// Matcher is a precomputed pattern for repeated normalised
// cross-correlation: the zero-mean pattern and its energy are derived
// once at construction, so per-call work is only the sliding windows.
// Receivers that correlate the same template against every incoming
// block (e.g. preamble detection) hold one Matcher.
type Matcher struct {
	zp []float64 // zero-mean pattern
	pe float64   // pattern energy sum(zp^2)
}

// NewMatcher returns a matcher for the given pattern. The pattern is
// copied; later mutation of the argument does not affect the matcher.
func NewMatcher(pattern []float64) *Matcher {
	m := &Matcher{zp: make([]float64, len(pattern))}
	pm := MeanFloat(pattern)
	for i, p := range pattern {
		m.zp[i] = p - pm
		m.pe += m.zp[i] * m.zp[i]
	}
	return m
}

// Correlate computes the normalised cross-correlation (cosine
// similarity) of the matcher's pattern against x at every offset,
// writing into dst (allocated if nil or short). Values are in [-1, 1];
// offsets where either window has zero energy yield 0.
func (m *Matcher) Correlate(x []float64, dst []float64) []float64 {
	n := len(x) - len(m.zp) + 1
	if n < 0 {
		n = 0
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if m.pe == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	for i := 0; i < n; i++ {
		var xm float64
		for j := range m.zp {
			xm += x[i+j]
		}
		xm /= float64(len(m.zp))
		var acc, xe float64
		for j := range m.zp {
			xv := x[i+j] - xm
			acc += xv * m.zp[j]
			xe += xv * xv
		}
		if xe == 0 {
			dst[i] = 0
			continue
		}
		dst[i] = acc / math.Sqrt(xe*m.pe)
	}
	return dst
}

// PeakIndex returns the index of the maximum value in x, or -1 if x is
// empty.
func PeakIndex(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i, v := range x[1:] {
		if v > x[best] {
			best = i + 1
		}
	}
	return best
}
