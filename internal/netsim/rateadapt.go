package netsim

// Closed-loop per-tag rate adaptation: every tag can carry a
// time-varying Gauss-Markov fading channel (the rateadapt trace model,
// seeded per tag off the run seed) and a rate-adaptation policy that
// picks the transmission rate chunk by chunk. Chunk loss then follows
// the instantaneous per-rate SNR cliff instead of the static
// geometry-derived ChunkLossProb, so the paper's headline claim — FD
// per-chunk feedback adapts within a frame, half-duplex probing only at
// frame boundaries — plays out at network scale.

import (
	"math"

	"repro/internal/rateadapt"
	"repro/internal/simrand"
)

// Rate-adaptation policy names for RateAdaptSpec.Adapter.
const (
	// RateAdaptFixed holds the rate whose multiplier is nearest 1x.
	RateAdaptFixed = "fixed"
	// RateAdaptARF steps once per frame on end-of-frame feedback — the
	// granularity half-duplex probing allows.
	RateAdaptARF = "arf"
	// RateAdaptFD adapts per chunk on the full-duplex feedback channel.
	RateAdaptFD = "fd"
)

// RateAdaptSpec configures optional closed-loop rate adaptation for
// every tag of a Scenario. The zero value disables it entirely: the
// engine then runs the static geometry-derived chunk loss, byte-for-byte
// identical to scenarios that predate this spec.
type RateAdaptSpec struct {
	// Adapter selects the policy: "" (disabled), RateAdaptFixed,
	// RateAdaptARF or RateAdaptFD.
	Adapter string `json:"adapter"`
	// FadeRho is the per-chunk Gauss-Markov correlation of each tag's
	// fading process, in [0, 1). Zero disables fading: the channel
	// holds the static geometry SNR, which (with the fixed adapter and
	// a single 1x rate) reproduces the static engine bit for bit.
	FadeRho float64 `json:"fade_rho"`
	// Rates is the rate table (default rateadapt.DefaultRates). Mult
	// must be strictly increasing and ReqSNRdB non-decreasing.
	Rates []rateadapt.RateSpec `json:"rates"`
	// UpAfter is the consecutive-success count before a step up
	// (default 5 for fd — per-chunk ACKs — and 3 for arf frames).
	UpAfter int `json:"up_after"`
	// DownAfter is the consecutive-failure count before arf steps down
	// (default 1; fd steps down on every NACK regardless).
	DownAfter int `json:"down_after"`
}

func (r RateAdaptSpec) enabled() bool { return r.Adapter != "" }

// fixedIndex is the rate RateAdaptFixed pins: the entry whose multiplier
// is nearest 1x on a ratio scale (ties go to the slower rate).
func (r RateAdaptSpec) fixedIndex() int {
	best, bestD := 0, math.Inf(1)
	for i, rt := range r.Rates {
		if d := math.Abs(math.Log(rt.Mult)); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// newAdapter builds one tag's policy instance (after defaults).
func (r RateAdaptSpec) newAdapter() rateadapt.Adapter {
	n := len(r.Rates)
	switch r.Adapter {
	case RateAdaptARF:
		return &rateadapt.ARF{NumRates: n, UpAfter: r.UpAfter, DownAfter: r.DownAfter}
	case RateAdaptFD:
		return &rateadapt.FullDuplex{NumRates: n, UpAfter: r.UpAfter}
	default:
		i := r.fixedIndex()
		return &rateadapt.Fixed{Index: i, RateName: r.Rates[i].Name}
	}
}

// fadeSeed derives the per-tag fading stream seed as a pure hash of the
// run seed and the tag index — deliberately outside the engine's split
// tree, so enabling rate adaptation never shifts any stream the static
// engine draws (the byte-identity contract for pre-existing scenarios).
func fadeSeed(seed uint64, tag int) uint64 {
	x := simrand.Mix64(seed ^ 0x66616465) // "fade"
	return simrand.Mix64(x ^ (uint64(tag) + 0x9e3779b97f4a7c15))
}

// fadeState is the closed-loop adaptation state for every tag, stored
// as parallel columns like tagState: the Gauss-Markov coefficient, the
// per-tag fading stream (stored inline), the adapter's mutable state,
// and the accumulators TagStats does not hold (its SNRdB is the fading
// mean, and the chunk, switch and lag counts accumulate in its row).
// A worker's serve lane binds one tag's row for the duration of a MAC
// exchange (serve.go); the binding worker is the only goroutine that
// touches the row, so no synchronisation is needed.
type fadeState struct {
	rates []rateadapt.RateSpec
	nr    int
	rho   float64
	fdFB  bool // adapter consumes per-chunk feedback (fd)

	// h is the small-scale fading state; it persists across mobility
	// epochs, which move only the mean.
	h []complex128
	// fadeSrc holds each tag's fading stream, drawn in place.
	fadeSrc []simrand.Source

	// policy is the adapter configuration every tag shares, in its
	// initial state; each serve lane runs a copy of it. Per tag
	// only the adapter's mutable state is stored: the rate index and
	// success streak under arf and fd, plus the failure streak under
	// arf (nil columns otherwise; the fixed policy has no state).
	policy                   rateadapt.Adapter
	rateIdx, goodRun, badRun []int32
	// Per-row init parameters (initRow runs sharded across workers).
	seed     uint64
	initRate int32

	// Whole-run accumulators TagStats does not hold: invMult sums 1/m in
	// chunk order (MeanRateMult's bits depend on it), rateChunks/rateLost
	// are row-major [tag*nr+rate].
	prevRate   []int32
	invMult    []float64
	rateChunks []int64
	rateLost   []int64
}

// newFadeState allocates the adaptation state for n tags up front so
// the round loop stays allocation-free. The per-row state (adapter
// config, fading coefficient, stream seed) is filled by initRow, which
// the engine shards across workers — each row is a pure function of
// (seed, tag index), so the fill order never matters.
func newFadeState(spec RateAdaptSpec, n int, seed uint64) *fadeState {
	nr := len(spec.Rates)
	f := &fadeState{
		rates:      spec.Rates,
		nr:         nr,
		rho:        spec.FadeRho,
		fdFB:       spec.Adapter == RateAdaptFD,
		h:          make([]complex128, n),
		fadeSrc:    make([]simrand.Source, n),
		prevRate:   make([]int32, n),
		invMult:    make([]float64, n),
		rateChunks: make([]int64, n*nr),
		rateLost:   make([]int64, n*nr),
		policy:     spec.newAdapter(),
		seed:       seed,
	}
	switch spec.Adapter {
	case RateAdaptARF:
		f.badRun = make([]int32, n)
		fallthrough
	case RateAdaptFD:
		f.rateIdx = make([]int32, n)
		f.goodRun = make([]int32, n)
	}
	f.initRate = int32(f.policy.Rate())
	return f
}

// initRow fills tag i's adaptation row: the fading stream, seeded by
// fadeSeed exactly as the per-tag fadingLoss sources were, so the draw
// sequences are unchanged. The adapter state columns start at zero,
// which is a fresh adapter's state.
func (f *fadeState) initRow(i int) {
	src := &f.fadeSrc[i]
	src.Reseed(fadeSeed(f.seed, i))
	if f.rho > 0 {
		f.h[i] = src.RayleighCoeff(1)
	}
	f.prevRate[i] = f.initRate
}

// oracleRate is the highest rate whose requirement the instantaneous
// SNR meets (the below-50%-loss side of the cliff), or the lowest rate
// when none qualifies — the reference a clairvoyant adapter would pick,
// used for the adaptation-lag diagnostic.
func (f *fadeState) oracleRate(snrDB float64) int {
	best := 0
	for i := range f.rates {
		if snrDB >= f.rates[i].ReqSNRdB {
			best = i
		}
	}
	return best
}

// streak32 narrows an adapter streak to its int32 column. A streak
// only grows past its threshold while the rate is pinned at the table's
// end, and from there only its comparison with the threshold is ever
// read; validate caps the thresholds at MaxInt32, so saturating there
// is exact.
func streak32(n int) int32 {
	return int32(min(n, math.MaxInt32))
}
