// Package simrand provides the deterministic random sources and
// distributions used across the simulator: Gaussian noise, Rayleigh and
// Rician fading draws, Poisson event counts, and a Gilbert-Elliott
// two-state burst-loss channel.
//
// Every experiment takes an explicit seed so results reproduce exactly.
// The underlying generator is PCG from math/rand/v2.
package simrand

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// Source is a deterministic random source with the distribution helpers
// the simulator needs. It holds its PCG by value: 16 bytes, comparable,
// and a copy continues the stream from the same position, so an engine
// that owns millions of streams can store them inline in a []Source and
// draw from each in place. It is not safe for concurrent use; give each
// goroutine its own Source (use Split).
type Source struct {
	pcg rand.PCG
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	s := new(Source)
	s.Reseed(seed)
	return s
}

// Mix64 is the splitmix64 finalizer: a bijective avalanche over uint64,
// shared by every sub-seed derivation in the simulator (the bench
// harness's per-cell seeds, netsim's per-tag fade seeds) so they all
// decorrelate seeds with exactly the same mix.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Reseed resets the source to the state New(seed) would produce, without
// allocating. Hot loops that need a fresh deterministic stream per item
// (e.g. one per frame) can keep one Source and reseed it.
func (s *Source) Reseed(seed uint64) {
	s.pcg.Seed(seed, seed^0x9e3779b97f4a7c15)
}

// Split derives an independent child source. The child's stream is a
// deterministic function of the parent state, so seeding the parent fixes
// the whole tree.
func (s *Source) Split() *Source {
	c := new(Source)
	c.SetState(s.pcg.Uint64(), s.pcg.Uint64())
	return c
}

// SetState sets the two PCG state words: the source then draws the
// stream of the Split child built from the same two words. This is how
// an engine seeds a stream stored inline (a parked root, a split child)
// without allocating a Source for it.
func (s *Source) SetState(hi, lo uint64) {
	s.pcg.Seed(hi, lo)
}

// f64 returns a uniform value in [0, 1), drawing from the PCG exactly
// as rand.Rand.Float64 does (there are exactly 1<<53 float64s in
// [0, 1)) but without the rand.Rand source indirection, so it inlines
// into the hot noise loops.
func (s *Source) f64() float64 {
	return float64(s.pcg.Uint64()<<11>>11) / (1 << 53)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.f64() }

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.pcg.Uint64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0. It is
// math/rand/v2's Rand.IntN over the source's PCG, draw for draw
// (Lemire's multiply-shift with its rejection step), without the
// interface call a rand.Rand makes for every word.
func (s *Source) IntN(n int) int {
	if n <= 0 {
		panic("invalid argument to IntN")
	}
	un := uint64(n)
	if un&(un-1) == 0 { // a power of two: mask
		return int(s.pcg.Uint64() & (un - 1))
	}
	hi, lo := bits.Mul64(s.pcg.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(s.pcg.Uint64(), un)
		}
	}
	return int(hi)
}

// Bit returns 0 or 1 with equal probability.
func (s *Source) Bit() byte { return byte(s.pcg.Uint64() & 1) }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.f64() < p }

// Normal returns a standard normal draw (ziggurat, stream-identical to
// rand.Rand.NormFloat64; see ziggurat.go).
func (s *Source) Normal() float64 { return s.norm() }

// Gaussian returns a normal draw with the given mean and standard
// deviation.
func (s *Source) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*s.norm()
}

// ComplexNormal returns a circularly-symmetric complex Gaussian draw with
// the given total variance (power). Real and imaginary parts each carry
// half the variance, which is the standard baseband AWGN model.
func (s *Source) ComplexNormal(variance float64) complex128 {
	sigma := math.Sqrt(variance / 2)
	return complex(sigma*s.norm(), sigma*s.norm())
}

// RayleighCoeff returns a complex channel coefficient h ~ CN(0, power):
// Rayleigh-fading amplitude with uniform phase and E[|h|^2] = power.
func (s *Source) RayleighCoeff(power float64) complex128 {
	return s.ComplexNormal(power)
}

// RicianCoeff returns a complex channel coefficient with Rician factor K
// (ratio of line-of-sight to scattered power) and E[|h|^2] = power.
// K = 0 degenerates to Rayleigh; large K approaches a pure LOS path.
func (s *Source) RicianCoeff(power, k float64) complex128 {
	if k < 0 {
		k = 0
	}
	los := math.Sqrt(power * k / (k + 1))
	scatter := s.ComplexNormal(power / (k + 1))
	phase := 2 * math.Pi * s.f64()
	return complex(los*math.Cos(phase), los*math.Sin(phase)) + scatter
}

// Poisson returns a Poisson draw with the given mean (Knuth's algorithm
// for small means, normal approximation above 30).
func (s *Source) Poisson(mean float64) int {
	return s.PoissonL(mean, math.Exp(-mean))
}

// PoissonL is Poisson with Knuth's threshold l = math.Exp(-mean)
// computed by the caller, for loops that draw many times at one mean.
// Given that l, it draws exactly what Poisson(mean) draws.
func (s *Source) PoissonL(mean, l float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(math.Round(s.Gaussian(mean, math.Sqrt(mean))))
		if n < 0 {
			n = 0
		}
		return n
	}
	k := 0
	p := 1.0
	for {
		p *= s.f64()
		if p <= l {
			return k
		}
		k++
	}
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	return rand.New(&s.pcg).Perm(n)
}

// FillNoise adds circularly-symmetric complex Gaussian noise of the given
// power (variance) to every sample of x in place.
func (s *Source) FillNoise(x []complex128, power float64) {
	if power <= 0 {
		return
	}
	sigma := math.Sqrt(power / 2)
	pcg := &s.pcg
	for i := range x {
		// Two manually inlined ziggurat fast paths (see ziggurat.go);
		// the rejection tail falls back to normSlow. Stream-identical
		// to calling Normal twice, verified by TestFillNoiseMatchesNorm.
		u := pcg.Uint64()
		j := int32(u)
		k := u >> 32 & 0x7F
		re := float64(j) * float64(wn[k])
		if absInt32(j) >= kn[k] {
			re = s.normSlow(j, k, re)
		}
		u = pcg.Uint64()
		j = int32(u)
		k = u >> 32 & 0x7F
		im := float64(j) * float64(wn[k])
		if absInt32(j) >= kn[k] {
			im = s.normSlow(j, k, im)
		}
		x[i] += complex(sigma*re, sigma*im)
	}
}

// GilbertElliott is a two-state Markov burst-loss channel. In the Good
// state bits/chunks are lost with probability LossGood, in the Bad state
// with LossBad; the state flips with the configured transition
// probabilities per step. It reproduces bursty interference loss, the
// regime where instantaneous feedback pays off most.
type GilbertElliott struct {
	PGoodToBad float64 // transition probability Good -> Bad per step
	PBadToGood float64 // transition probability Bad -> Good per step
	LossGood   float64 // loss probability while Good
	LossBad    float64 // loss probability while Bad

	bad bool
	src *Source
}

// NewGilbertElliott returns a Gilbert-Elliott channel starting in the
// Good state, driven by its own child of src.
func NewGilbertElliott(src *Source, pGB, pBG, lossGood, lossBad float64) *GilbertElliott {
	return &GilbertElliott{
		PGoodToBad: pGB, PBadToGood: pBG,
		LossGood: lossGood, LossBad: lossBad,
		src: src.Split(),
	}
}

// Step advances the Markov state one step and reports whether the current
// transmission unit is lost.
func (g *GilbertElliott) Step() bool {
	if g.bad {
		if g.src.Bool(g.PBadToGood) {
			g.bad = false
		}
	} else {
		if g.src.Bool(g.PGoodToBad) {
			g.bad = true
		}
	}
	loss := g.LossGood
	if g.bad {
		loss = g.LossBad
	}
	return g.src.Bool(loss)
}

// Bad reports whether the channel is currently in the Bad state.
func (g *GilbertElliott) Bad() bool { return g.bad }

// SteadyStateLoss returns the long-run average loss probability implied by
// the configured transition matrix.
func (g *GilbertElliott) SteadyStateLoss() float64 {
	denom := g.PGoodToBad + g.PBadToGood
	if denom == 0 {
		return g.LossGood
	}
	pBad := g.PGoodToBad / denom
	return (1-pBad)*g.LossGood + pBad*g.LossBad
}
