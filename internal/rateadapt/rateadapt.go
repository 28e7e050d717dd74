// Package rateadapt compares rate-adaptation policies on a time-varying
// channel: the paper's full-duplex per-chunk feedback lets the
// transmitter react within one chunk, versus packet-level probing
// (ARF-style) that only learns at frame boundaries, versus fixed rates.
//
// The channel is a Gauss-Markov fading SNR trace sampled per chunk-time;
// each rate has an SNR requirement, and chunk loss follows a logistic
// curve around it (faster rates demand more SNR). Throughput counts
// delivered chunk payloads over elapsed time, where a chunk at rate
// multiplier m takes 1/m base chunk-times.
package rateadapt

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/simrand"
	"repro/internal/vecmath"
)

// RateSpec describes one rate-table entry. The JSON tags let scenario
// files (internal/netsim) declare custom rate tables as data.
type RateSpec struct {
	// Name for tables.
	Name string `json:"name"`
	// Mult is the speed multiplier relative to the base rate.
	Mult float64 `json:"mult"`
	// ReqSNRdB is the SNR at which chunk loss is 50%; loss falls
	// steeply above it.
	ReqSNRdB float64 `json:"req_snr_db"`
}

// DefaultRates is the standard 4-rate table, matching the forward-link
// modem's rate IDs.
var DefaultRates = []RateSpec{
	{Name: "0.25x", Mult: 0.25, ReqSNRdB: 2},
	{Name: "0.5x", Mult: 0.5, ReqSNRdB: 6},
	{Name: "1x", Mult: 1, ReqSNRdB: 10},
	{Name: "2x", Mult: 2, ReqSNRdB: 14},
}

// ChunkLossProb returns the chunk loss probability of rate r at the
// given instantaneous SNR (dB): a steep logistic cliff around the
// requirement (0.5 dB slope), reflecting the sharp BER waterfall of
// coded chunks.
func ChunkLossProb(r RateSpec, snrDB float64) float64 {
	return 1 / (1 + math.Exp((snrDB-r.ReqSNRdB)/0.5))
}

// ChunkLossProbs sets dst[k] = ChunkLossProb(r, snrDB[k]) for every k,
// bit for bit, taking the Exp four lanes at a time through vecmath;
// dst must be at least as long as snrDB and may be snrDB itself.
func ChunkLossProbs(r RateSpec, dst, snrDB []float64) {
	dst = dst[:len(snrDB)]
	for k, snr := range snrDB {
		dst[k] = (snr - r.ReqSNRdB) / 0.5
	}
	for k := 0; k < len(dst); {
		k += vecmath.Exp(dst[k:], dst[k:])
		for end := min(k+4, len(dst)); k < end; k++ {
			dst[k] = math.Exp(dst[k])
		}
	}
	for k, e := range dst {
		dst[k] = 1 / (1 + e)
	}
}

// FadeStep advances a unit-mean-power Gauss-Markov fading coefficient
// one chunk-time: h' = rho*h + CN(0, 1-rho^2). This is the trace
// model's recursion, exported so other engines (the netsim scenario
// engine) evolve exactly the same channel.
func FadeStep(h complex128, rho float64, src *simrand.Source) complex128 {
	return complex(rho, 0)*h + src.RayleighCoeff(1-rho*rho)
}

// FadeGainDB is a fading coefficient's instantaneous power gain in dB,
// floored at -90 dB exactly as the trace model floors it.
func FadeGainDB(h complex128) float64 {
	return 10 * math.Log10(FadePower(h))
}

// FadePower is a fading coefficient's instantaneous power gain, floored
// at 1e-9: what FadeGainDB takes the Log10 of, for engines that batch
// the Log across many coefficients.
func FadePower(h complex128) float64 {
	return math.Max(real(h*cmplx.Conj(h)), 1e-9)
}

// Adapter selects the transmission rate index and learns from feedback.
type Adapter interface {
	// Name identifies the policy.
	Name() string
	// Rate returns the current rate index into the table.
	Rate() int
	// OnChunk delivers per-chunk feedback (full-duplex only; others
	// ignore it).
	OnChunk(ok bool)
	// OnFrame delivers end-of-frame feedback (ok = whole frame clean).
	OnFrame(ok bool)
}

// Fixed always transmits at one rate.
type Fixed struct {
	Index    int
	RateName string
}

// Name implements Adapter.
func (f *Fixed) Name() string { return "fixed-" + f.RateName }

// Rate implements Adapter.
func (f *Fixed) Rate() int { return f.Index }

// OnChunk implements Adapter.
func (f *Fixed) OnChunk(bool) {}

// OnFrame implements Adapter.
func (f *Fixed) OnFrame(bool) {}

// ARF is the packet-probing baseline: step the rate up after UpAfter
// consecutive clean frames, step down after DownAfter consecutive failed
// frames. It can only learn once per frame — the granularity half-duplex
// feedback allows.
type ARF struct {
	NumRates  int
	UpAfter   int
	DownAfter int

	idx        int
	goodStreak int
	badStreak  int
}

// State returns the adapter's per-instance state: the rate index and
// the consecutive clean and failed frame counts. NumRates, UpAfter and
// DownAfter are configuration, so a population of adapters sharing one
// configuration can store just this state per instance and run each one
// through a single scratch ARF loaded with SetState.
func (a *ARF) State() (idx, goodStreak, badStreak int) {
	return a.idx, a.goodStreak, a.badStreak
}

// SetState loads a per-instance state saved by State.
func (a *ARF) SetState(idx, goodStreak, badStreak int) {
	a.idx, a.goodStreak, a.badStreak = idx, goodStreak, badStreak
}

// NewARF returns an ARF adapter over n rates starting at the lowest.
func NewARF(n int) *ARF {
	return &ARF{NumRates: n, UpAfter: 3, DownAfter: 1}
}

// Name implements Adapter.
func (a *ARF) Name() string { return "arf-probing" }

// Rate implements Adapter.
func (a *ARF) Rate() int { return a.idx }

// OnChunk implements Adapter (packet probing ignores chunk feedback).
func (a *ARF) OnChunk(bool) {}

// OnFrame implements Adapter.
func (a *ARF) OnFrame(ok bool) {
	if ok {
		a.goodStreak++
		a.badStreak = 0
		if a.goodStreak >= a.UpAfter && a.idx < a.NumRates-1 {
			a.idx++
			a.goodStreak = 0
		}
		return
	}
	a.badStreak++
	a.goodStreak = 0
	if a.badStreak >= a.DownAfter && a.idx > 0 {
		a.idx--
		a.badStreak = 0
	}
}

// FullDuplex adapts per chunk using the instantaneous feedback channel:
// one NACK steps the rate down immediately; UpAfter consecutive ACKs
// step it up. This is the policy the paper's feedback channel enables.
type FullDuplex struct {
	NumRates int
	UpAfter  int

	idx        int
	goodStreak int
}

// State returns the adapter's per-instance state: the rate index and
// the consecutive ACK count (NumRates and UpAfter are configuration;
// see ARF.State).
func (a *FullDuplex) State() (idx, goodStreak int) { return a.idx, a.goodStreak }

// SetState loads a per-instance state saved by State.
func (a *FullDuplex) SetState(idx, goodStreak int) { a.idx, a.goodStreak = idx, goodStreak }

// NewFullDuplex returns the per-chunk adapter starting at the lowest
// rate.
func NewFullDuplex(n int) *FullDuplex {
	return &FullDuplex{NumRates: n, UpAfter: 5}
}

// Name implements Adapter.
func (a *FullDuplex) Name() string { return "fd-perchunk" }

// Rate implements Adapter.
func (a *FullDuplex) Rate() int { return a.idx }

// OnChunk implements Adapter.
func (a *FullDuplex) OnChunk(ok bool) {
	if !ok {
		a.idx--
		if a.idx < 0 {
			a.idx = 0
		}
		a.goodStreak = 0
		return
	}
	a.goodStreak++
	if a.goodStreak >= a.UpAfter && a.idx < a.NumRates-1 {
		a.idx++
		a.goodStreak = 0
	}
}

// OnFrame implements Adapter (already adapted per chunk).
func (a *FullDuplex) OnFrame(bool) {}

// SimConfig describes a rate-adaptation trace run.
type SimConfig struct {
	// Rates is the rate table (default DefaultRates).
	Rates []RateSpec
	// MeanSNRdB is the trace's average SNR.
	MeanSNRdB float64
	// FadeRho is the per-chunk-time Gauss-Markov correlation of the
	// fading process (default 0.99: coherence ~100 chunk-times).
	FadeRho float64
	// FrameChunks is the frame length in chunks (default 24).
	FrameChunks int
	// ChunkPayloadBytes sizes goodput accounting (default 64).
	ChunkPayloadBytes int
	// FeedbackBER flips per-chunk feedback bits (FD adapter only).
	FeedbackBER float64
	// Seed drives the fading trace and losses.
	Seed uint64
}

func (c *SimConfig) applyDefaults() {
	if len(c.Rates) == 0 {
		c.Rates = DefaultRates
	}
	if c.FadeRho == 0 {
		c.FadeRho = 0.99
	}
	if c.FrameChunks <= 0 {
		c.FrameChunks = 24
	}
	if c.ChunkPayloadBytes <= 0 {
		c.ChunkPayloadBytes = 64
	}
}

// TraceResult summarises a trace run.
type TraceResult struct {
	Adapter string
	// DeliveredBytes of chunk payload.
	DeliveredBytes int64
	// ElapsedTime in base chunk-times (rate m chunks take 1/m).
	ElapsedTime float64
	// ChunksSent and ChunksLost count transmissions.
	ChunksSent, ChunksLost int64
	// RateTime[i] is elapsed time spent at rate i.
	RateTime []float64
	// Switches counts rate changes.
	Switches int64
}

// ThroughputBytesPerTime returns delivered payload per base chunk-time.
func (r TraceResult) ThroughputBytesPerTime() float64 {
	if r.ElapsedTime == 0 {
		return 0
	}
	return float64(r.DeliveredBytes) / r.ElapsedTime
}

// LossRate returns the fraction of chunks lost.
func (r TraceResult) LossRate() float64 {
	if r.ChunksSent == 0 {
		return 0
	}
	return float64(r.ChunksLost) / float64(r.ChunksSent)
}

// String renders a compact summary.
func (r TraceResult) String() string {
	return fmt.Sprintf("%s: %.2f B/t loss=%.3f switches=%d",
		r.Adapter, r.ThroughputBytesPerTime(), r.LossRate(), r.Switches)
}

// RunTrace drives an adapter over nChunks chunk transmissions on a
// correlated fading SNR trace.
func RunTrace(cfg SimConfig, a Adapter, nChunks int) TraceResult {
	cfg.applyDefaults()
	src := simrand.New(cfg.Seed)
	res := TraceResult{Adapter: a.Name(), RateTime: make([]float64, len(cfg.Rates))}
	// Gauss-Markov complex fading; instantaneous SNR = mean * |h|^2.
	h := src.RayleighCoeff(1)
	rho := cfg.FadeRho
	frameOK := true
	chunkInFrame := 0
	prevRate := a.Rate()
	for i := 0; i < nChunks; i++ {
		// Advance the fading process one chunk-time.
		h = FadeStep(h, rho, src)
		snrDB := cfg.MeanSNRdB + FadeGainDB(h)

		ri := a.Rate()
		if ri != prevRate {
			res.Switches++
			prevRate = ri
		}
		r := cfg.Rates[ri]
		dt := 1 / r.Mult
		res.ElapsedTime += dt
		res.RateTime[ri] += dt
		res.ChunksSent++
		lost := src.Bool(ChunkLossProb(r, snrDB))
		if lost {
			res.ChunksLost++
			frameOK = false
		} else {
			res.DeliveredBytes += int64(cfg.ChunkPayloadBytes)
		}
		fb := !lost
		if cfg.FeedbackBER > 0 && src.Bool(cfg.FeedbackBER) {
			fb = !fb
		}
		a.OnChunk(fb)
		chunkInFrame++
		if chunkInFrame == cfg.FrameChunks {
			a.OnFrame(frameOK)
			frameOK = true
			chunkInFrame = 0
		}
	}
	return res
}
