package channel

import (
	"fmt"

	"repro/internal/simrand"
)

// Fader produces a complex small-scale channel coefficient per coherence
// block. Amplitude-domain: received amplitude is multiplied by the
// coefficient; E[|h|^2] should be 1 so the path-loss gain sets the mean
// power.
type Fader interface {
	// NextCoeff returns the channel coefficient for the next block.
	NextCoeff() complex128
}

// StaticFader always returns the same coefficient. The zero value is an
// all-blocking channel; use NewStaticFader(1) for an ideal channel.
type StaticFader struct {
	Coeff complex128
}

// NewStaticFader returns a fader pinned to the given coefficient.
func NewStaticFader(coeff complex128) *StaticFader { return &StaticFader{Coeff: coeff} }

// NextCoeff implements Fader.
func (s *StaticFader) NextCoeff() complex128 { return s.Coeff }

// RayleighFader draws an independent CN(0,1) coefficient per block
// (block-fading Rayleigh with unit mean power).
type RayleighFader struct {
	src *simrand.Source
}

// NewRayleighFader returns a block Rayleigh fader driven by a child of src.
func NewRayleighFader(src *simrand.Source) *RayleighFader {
	return &RayleighFader{src: src.Split()}
}

// NextCoeff implements Fader.
func (r *RayleighFader) NextCoeff() complex128 { return r.src.RayleighCoeff(1) }

// RicianFader draws an independent Rician coefficient per block with
// factor K and unit mean power.
type RicianFader struct {
	K   float64
	src *simrand.Source
}

// NewRicianFader returns a block Rician fader with factor K.
func NewRicianFader(src *simrand.Source, k float64) *RicianFader {
	return &RicianFader{K: k, src: src.Split()}
}

// NextCoeff implements Fader.
func (r *RicianFader) NextCoeff() complex128 { return r.src.RicianCoeff(1, r.K) }

// GaussMarkovFader is a first-order autoregressive fading process:
// h[k+1] = rho*h[k] + sqrt(1-rho^2)*CN(0,1). It produces the temporally
// correlated fades that rate adaptation must track; rho close to 1 means
// a slowly varying channel.
type GaussMarkovFader struct {
	rho float64
	h   complex128
	src *simrand.Source
}

// NewGaussMarkovFader returns a correlated fader with correlation rho in
// [0, 1). It panics if rho is out of range. The process starts from a
// stationary draw so the first block is already correctly distributed.
func NewGaussMarkovFader(src *simrand.Source, rho float64) *GaussMarkovFader {
	if rho < 0 || rho >= 1 {
		panic("channel: GaussMarkov correlation must be in [0, 1)")
	}
	child := src.Split()
	return &GaussMarkovFader{rho: rho, h: child.RayleighCoeff(1), src: child}
}

// NextCoeff implements Fader.
func (g *GaussMarkovFader) NextCoeff() complex128 {
	out := g.h
	innov := g.src.RayleighCoeff(1 - g.rho*g.rho)
	g.h = complex(g.rho, 0)*g.h + innov
	return out
}

// FadingKind selects the small-scale model a link attaches to each of its
// paths (core.LinkConfig.Fading).
type FadingKind int

// Fading models a link can select.
const (
	FadingNone FadingKind = iota // static, coefficient 1
	FadingRayleigh
	FadingRician
	FadingGaussMarkov
)

// String returns the model name.
func (k FadingKind) String() string {
	switch k {
	case FadingNone:
		return "none"
	case FadingRayleigh:
		return "rayleigh"
	case FadingRician:
		return "rician"
	case FadingGaussMarkov:
		return "gaussmarkov"
	default:
		return fmt.Sprintf("FadingKind(%d)", int(k))
	}
}
