package sigproc

import (
	"fmt"
	"math"
)

// MovingAverage is a streaming boxcar filter over real samples: averaging
// N samples improves the SNR of a constant level by a factor of N against
// white noise.
//
// The zero value is not usable; construct with NewMovingAverage.
type MovingAverage struct {
	buf  []float64
	sum  float64
	idx  int
	full bool
}

// NewMovingAverage returns a moving-average filter over a window of n
// samples. It panics if n < 1.
func NewMovingAverage(n int) *MovingAverage {
	if n < 1 {
		panic("sigproc: moving average window must be >= 1")
	}
	return &MovingAverage{buf: make([]float64, n)}
}

// Push adds a sample and returns the current window average. Before the
// window fills, the average is over the samples seen so far.
func (m *MovingAverage) Push(v float64) float64 {
	m.sum += v - m.buf[m.idx]
	m.buf[m.idx] = v
	m.idx++
	if m.idx == len(m.buf) {
		m.idx = 0
		m.full = true
	}
	n := len(m.buf)
	if !m.full {
		n = m.idx
	}
	return m.sum / float64(n)
}

// Value returns the current average without pushing a new sample.
func (m *MovingAverage) Value() float64 {
	n := len(m.buf)
	if !m.full {
		n = m.idx
		if n == 0 {
			return 0
		}
	}
	return m.sum / float64(n)
}

// Reset clears the filter state.
func (m *MovingAverage) Reset() {
	for i := range m.buf {
		m.buf[i] = 0
	}
	m.sum = 0
	m.idx = 0
	m.full = false
}

// Window returns the configured window length.
func (m *MovingAverage) Window() int { return len(m.buf) }

// SinglePoleIIR is a first-order lowpass y[n] = a*x[n] + (1-a)*y[n-1],
// modelling an RC detector filter. The coefficient a is derived from the
// -3 dB cutoff frequency relative to the sample rate.
type SinglePoleIIR struct {
	a float64
	y float64
}

// NewSinglePoleIIR returns a single-pole lowpass with the given cutoff
// frequency in Hz at the given sample rate. It panics if cutoff or
// sampleRate are not positive or cutoff >= sampleRate/2.
func NewSinglePoleIIR(cutoffHz, sampleRate float64) *SinglePoleIIR {
	if cutoffHz <= 0 || sampleRate <= 0 {
		panic("sigproc: IIR cutoff and sample rate must be positive")
	}
	if cutoffHz >= sampleRate/2 {
		panic(fmt.Sprintf("sigproc: IIR cutoff %g >= Nyquist %g", cutoffHz, sampleRate/2))
	}
	// Standard RC mapping: a = dt / (RC + dt), RC = 1/(2*pi*fc).
	dt := 1 / sampleRate
	rc := 1 / (2 * math.Pi * cutoffHz)
	return &SinglePoleIIR{a: dt / (rc + dt)}
}

// Push filters one sample and returns the output.
func (f *SinglePoleIIR) Push(x float64) float64 {
	f.y += f.a * (x - f.y)
	return f.y
}

// Value returns the current output without pushing a new sample.
func (f *SinglePoleIIR) Value() float64 { return f.y }

// Reset clears the filter state.
func (f *SinglePoleIIR) Reset() { f.y = 0 }
