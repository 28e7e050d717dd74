// Package mac is the packet-level discrete simulator used for the
// protocol experiments: it abstracts the waveform PHY into per-chunk loss
// processes and a feedback bit-error probability (both calibrated from
// the waveform link in internal/core), and compares link-layer protocols
// at scales where sample-accurate simulation would be too slow —
// half-duplex stop-and-wait and block-ACK baselines versus the paper's
// full-duplex instantaneous feedback with early termination.
//
// Airtime is measured in BYTES ON AIR, which is proportional to time at
// a fixed rate and lets the arithmetic stay exact. Elapsed time
// additionally counts idle/backoff periods.
//
// Each protocol is written once, as a resumable per-frame exchange
// machine (Exchange): Begin opens a frame and returns a Need, and each
// Chunk call answers the chunk that Need asked for. A Need asks for
// one chunk outcome, or first for an idle backoff of n chunk-times,
// or says the frame is done. The machine accumulates into a Result
// the caller owns. Run drives that machine through a Loss process.
// An engine that serves many frames at once (internal/netsim) keeps
// one machine per frame in flight and computes the chunk outcomes for
// all of them together.
package mac

import (
	"repro/internal/simrand"
)

// Loss decides the fate of each transmitted chunk, advancing its internal
// state once per chunk airtime.
type Loss interface {
	// Chunk reports whether the chunk just transmitted was lost.
	Chunk() bool
	// Idle advances channel state over n chunk-times without a
	// transmission (backoff periods still see the channel evolve).
	Idle(n int)
}

// IIDLoss loses each chunk independently with probability p, drawing
// from src.
type IIDLoss struct {
	p   float64
	src *simrand.Source
}

// NewIIDLoss returns an iid chunk loss process.
func NewIIDLoss(p float64, src *simrand.Source) *IIDLoss {
	return &IIDLoss{p: p, src: src.Split()}
}

// NewIIDLossUsing returns an iid chunk loss process drawing directly
// from src, without splitting a child off it. Kept for perfbench's MAC
// probe, which replays a fixed stream.
func NewIIDLossUsing(p float64, src *simrand.Source) *IIDLoss {
	return &IIDLoss{p: p, src: src}
}

// Chunk implements Loss.
func (l *IIDLoss) Chunk() bool { return l.src.Bool(l.p) }

// Idle implements Loss (memoryless: nothing to advance).
func (l *IIDLoss) Idle(int) {}

// GilbertLoss wraps a Gilbert-Elliott chain stepped per chunk time.
type GilbertLoss struct {
	ge *simrand.GilbertElliott
}

// NewGilbertLoss returns a bursty chunk loss process.
func NewGilbertLoss(src *simrand.Source, pGB, pBG, lossGood, lossBad float64) *GilbertLoss {
	return &GilbertLoss{ge: simrand.NewGilbertElliott(src, pGB, pBG, lossGood, lossBad)}
}

// Chunk implements Loss.
func (l *GilbertLoss) Chunk() bool { return l.ge.Step() }

// Idle implements Loss: the channel keeps evolving while we back off.
func (l *GilbertLoss) Idle(n int) {
	for i := 0; i < n; i++ {
		l.ge.Step()
	}
}

// SteadyStateLoss exposes the underlying chain's long-run loss rate.
func (l *GilbertLoss) SteadyStateLoss() float64 { return l.ge.SteadyStateLoss() }

// BurstLoss models a co-channel interferer: bursts arrive as a Bernoulli
// process per chunk-time and last a geometric number of chunk-times;
// while a burst is active every chunk is lost with HitProb.
type BurstLoss struct {
	// StartProb is the per-chunk-time probability a burst begins.
	StartProb float64
	// MeanBurstChunks is the mean burst duration in chunk-times.
	MeanBurstChunks float64
	// HitProb is the chunk loss probability while a burst is active
	// (default 1).
	HitProb float64
	// BaseLoss is the chunk loss probability outside bursts.
	BaseLoss float64

	remaining int
	src       *simrand.Source
}

// NewBurstLoss returns a burst interference loss process.
func NewBurstLoss(src *simrand.Source, startProb, meanBurst, hitProb, baseLoss float64) *BurstLoss {
	if hitProb <= 0 {
		hitProb = 1
	}
	return &BurstLoss{
		StartProb: startProb, MeanBurstChunks: meanBurst,
		HitProb: hitProb, BaseLoss: baseLoss,
		src: src.Split(),
	}
}

func (l *BurstLoss) step() bool {
	if l.remaining > 0 {
		l.remaining--
		return l.src.Bool(l.HitProb)
	}
	if l.src.Bool(l.StartProb) {
		// Geometric duration with the configured mean (at least 1).
		n := 1
		if l.MeanBurstChunks > 1 {
			p := 1 / l.MeanBurstChunks
			for !l.src.Bool(p) {
				n++
				if n > 1<<20 {
					break
				}
			}
		}
		l.remaining = n - 1
		return l.src.Bool(l.HitProb)
	}
	return l.src.Bool(l.BaseLoss)
}

// Chunk implements Loss.
func (l *BurstLoss) Chunk() bool { return l.step() }

// Idle implements Loss.
func (l *BurstLoss) Idle(n int) {
	for i := 0; i < n; i++ {
		l.step()
	}
}

// Active reports whether a burst is currently in progress.
func (l *BurstLoss) Active() bool { return l.remaining > 0 }

// DutyCycle returns the long-run fraction of chunk-times inside bursts.
func (l *BurstLoss) DutyCycle() float64 {
	if l.StartProb <= 0 {
		return 0
	}
	m := l.MeanBurstChunks
	if m < 1 {
		m = 1
	}
	busy := l.StartProb * m
	return busy / (1 + busy - l.StartProb)
}
