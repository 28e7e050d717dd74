package channel

import (
	"math"
	"math/cmplx"

	"repro/internal/sigproc"
)

// Path applies one directed propagation path to a block of transmit
// samples: amplitude gain from path loss, a per-block fading coefficient,
// fractional-sample propagation delay, and carrier frequency offset.
// The waveform link (internal/core) builds one Path per propagation leg:
// forward, backscatter, self-leak and interferer paths.
type Path struct {
	// Gain is the linear POWER gain of the path (path loss); the applied
	// amplitude gain is sqrt(Gain).
	Gain float64
	// Fader supplies the per-block small-scale coefficient; nil means an
	// ideal (coefficient 1) channel.
	Fader Fader
	// DelaySamples is the propagation delay in samples (may be
	// fractional).
	DelaySamples float64
	// CFOHz is the residual carrier frequency offset between the two
	// radios; 0 for the monostatic backscatter path (same oscillator).
	CFOHz float64
	// SampleRate is required when CFOHz != 0.
	SampleRate float64

	coeff    complex128
	haveCoef bool
	phase    float64
	delayBuf sigproc.IQ
}

// BlockStart draws the fading coefficient for the next coherence block.
// Call once per block before Apply/AddTo; if never called, the first use
// draws automatically.
func (p *Path) BlockStart() {
	if p.Fader != nil {
		p.coeff = p.Fader.NextCoeff()
	} else {
		p.coeff = 1
	}
	p.haveCoef = true
}

// Coeff returns the current composite amplitude coefficient
// sqrt(Gain) * fading.
func (p *Path) Coeff() complex128 {
	if !p.haveCoef {
		p.BlockStart()
	}
	return complex(math.Sqrt(p.Gain), 0) * p.coeff
}

// Apply writes the path output for tx into dst (allocated if nil or
// short) and returns dst. The output has the same length as the input.
func (p *Path) Apply(tx sigproc.IQ, dst sigproc.IQ) sigproc.IQ {
	if cap(dst) < len(tx) {
		dst = make(sigproc.IQ, len(tx))
	}
	dst = dst[:len(tx)]
	dst.Zero()
	p.AddTo(tx, dst)
	return dst
}

// AddTo accumulates the path output for tx into dst, which must be at
// least as long as tx. Use this to superimpose several transmitters at a
// receiver.
func (p *Path) AddTo(tx sigproc.IQ, dst sigproc.IQ) {
	if len(dst) < len(tx) {
		panic("channel: AddTo destination shorter than input")
	}
	h := p.Coeff()
	src := tx
	if p.DelaySamples != 0 {
		p.delayBuf = sigproc.FractionalDelay(tx, p.DelaySamples, p.delayBuf)
		src = p.delayBuf
	}
	if p.CFOHz == 0 {
		for i, v := range src {
			dst[i] += v * h
		}
		return
	}
	if p.SampleRate <= 0 {
		panic("channel: CFO requires a positive SampleRate")
	}
	step := 2 * math.Pi * p.CFOHz / p.SampleRate
	ph := p.phase
	for i, v := range src {
		rot := cmplx.Exp(complex(0, ph))
		dst[i] += v * h * rot
		ph += step
	}
	// Keep phase continuous across blocks, wrapped to avoid precision loss.
	p.phase = math.Mod(ph, 2*math.Pi)
}
