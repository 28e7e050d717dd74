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

	"repro/internal/mac"
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
// A worker binds a fadeView over one tag's row for the
// duration of a MAC exchange; the binding worker (the tag's cell
// owner) is the only goroutine that touches the row, so no
// synchronisation is needed.
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
	// initial state; each worker's fadeView runs a copy of it. Per tag
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

// fadeView implements mac.Loss over one tag's fadeState row for the
// duration of a MAC exchange. Each Chunk call advances the Gauss-Markov
// fading process one chunk-time (exactly the rateadapt.RunTrace
// recursion), reads the adapter's current rate, and loses the chunk
// with the instantaneous per-rate SNR-cliff probability; the resulting
// ACK/NACK feeds the adapter back (per chunk for fd, ignored by
// fixed/arf).
//
// The loss draw itself rides the tag's loss stream (the worker's iid
// is already pointed at it by runFrame; the probability is rewritten
// before each draw), so with FadeRho = 0 and a single 1x rate at the
// scenario cliff the draw sequence — and therefore the whole run — is
// bit-for-bit the static engine's. The fading and feedback-flip draws
// come from the tag's dedicated fade stream and are only consumed when
// fading (rho > 0) or fd feedback is in play.
type fadeView struct {
	f     *fadeState
	t     *tagState
	iid   *mac.IIDLoss // the owning worker's loss scratch
	rates []rateadapt.RateSpec
	rho   float64
	// adapter is the worker's policy instance, set once by init: &arf
	// or &fdp (a copy of the shared configuration) with the bound tag's
	// state loaded, or the shared stateless fixed policy.
	adapter rateadapt.Adapter
	arf     rateadapt.ARF
	fdp     rateadapt.FullDuplex

	// i is the bound tag; fadeSrc points at its fading stream.
	i       int
	fadeSrc *simrand.Source
	// extraP is the cell's interference-burst loss for the current
	// frame (set by runFrame after bind; 0 with faults disabled),
	// composed into every chunk's loss probability.
	extraP float64

	// Per-frame scratch, reset by beginFrame and read by the engine
	// right after each MAC exchange.
	frameChunks  int64
	frameInvMult float64
	frameLost    int64
}

// init wires the view to the engine's fadeState and the owning worker's
// loss scratch. Called once per worker at pool start.
func (v *fadeView) init(e *engine, iid *mac.IIDLoss) {
	v.f = e.fade
	v.t = &e.tags
	v.iid = iid
	v.rates = e.fade.rates
	v.rho = e.fade.rho
	switch a := e.fade.policy.(type) {
	case *rateadapt.ARF:
		v.arf = *a
		v.adapter = &v.arf
	case *rateadapt.FullDuplex:
		v.fdp = *a
		v.adapter = &v.fdp
	default:
		v.adapter = a
	}
}

// bind points the view at tag i's row and loads its adapter state.
func (v *fadeView) bind(i int) {
	f := v.f
	v.i = i
	v.fadeSrc = &f.fadeSrc[i]
	switch {
	case f.badRun != nil:
		v.arf.SetState(int(f.rateIdx[i]), int(f.goodRun[i]), int(f.badRun[i]))
	case f.rateIdx != nil:
		v.fdp.SetState(int(f.rateIdx[i]), int(f.goodRun[i]))
	}
	v.extraP = 0
}

// unbind writes the adapter's mutated state back to the row.
func (v *fadeView) unbind() {
	f, i := v.f, v.i
	switch {
	case f.badRun != nil:
		idx, good, bad := v.arf.State()
		f.rateIdx[i], f.goodRun[i], f.badRun[i] = int32(idx), streak32(good), streak32(bad)
	case f.rateIdx != nil:
		idx, good := v.fdp.State()
		f.rateIdx[i], f.goodRun[i] = int32(idx), streak32(good)
	}
}

// streak32 narrows an adapter streak to its int32 column. A streak
// only grows past its threshold while the rate is pinned at the table's
// end, and from there only its comparison with the threshold is ever
// read; validate caps the thresholds at MaxInt32, so saturating there
// is exact.
func streak32(n int) int32 {
	return int32(min(n, math.MaxInt32))
}

// advance steps the fading process one chunk-time. With rho = 0 the
// channel is static and no randomness is consumed.
func (v *fadeView) advance() {
	if v.rho == 0 {
		return
	}
	f, i := v.f, v.i
	f.h[i] = rateadapt.FadeStep(f.h[i], v.rho, v.fadeSrc)
}

// beginFrame resets the per-frame accumulators before a MAC exchange.
func (v *fadeView) beginFrame() {
	v.frameChunks, v.frameInvMult, v.frameLost = 0, 0, 0
}

// Chunk implements mac.Loss.
func (v *fadeView) Chunk() bool {
	v.advance()
	ri := v.adapter.Rate()
	f, i := v.f, v.i
	ts := &v.t.stats[i]
	if int32(ri) != f.prevRate[i] {
		ts.RateSwitches++
		f.prevRate[i] = int32(ri)
	}
	r := v.rates[ri]
	snr := ts.SNRdB // the fading mean
	if v.rho > 0 {
		snr += rateadapt.FadeGainDB(f.h[i])
	}
	p := rateadapt.ChunkLossProb(r, snr)
	if v.extraP > 0 {
		p += (1 - p) * v.extraP
	}
	v.iid.P = p
	lostChunk := v.iid.Chunk()

	v.frameChunks++
	v.frameInvMult += 1 / r.Mult
	ts.AdaptChunks++
	f.invMult[i] += 1 / r.Mult
	f.rateChunks[i*f.nr+ri]++
	if lostChunk {
		f.rateLost[i*f.nr+ri]++
		v.frameLost++
	}
	if ri != f.oracleRate(snr) {
		ts.AdaptLagChunks++
	}

	fb := !lostChunk
	if ber := ts.FeedbackBER; f.fdFB && ber > 0 && v.fadeSrc.Bool(ber) {
		fb = !fb
	}
	v.adapter.OnChunk(fb)
	return lostChunk
}

// Idle implements mac.Loss: the channel keeps fading while the tag
// backs off (one process step per chunk-time, as in the trace model).
func (v *fadeView) Idle(n int) {
	for i := 0; i < n; i++ {
		v.advance()
	}
}

// frameExtraBytes converts the rates used during the last MAC exchange
// into an airtime correction: a chunk at multiplier m occupies
// chunkAir/m byte-times instead of chunkAir, so the exchange's elapsed
// and transmitted airtime shift by chunkAir*(sum(1/m) - chunks). All
// 1x chunks make this exactly zero.
func (v *fadeView) frameExtraBytes(chunkAir int64) int64 {
	return int64(math.Round(float64(chunkAir) * (v.frameInvMult - float64(v.frameChunks))))
}

// endFrame reports end-of-frame feedback to the adapter: a frame is
// "clean" only when it was delivered with no chunk lost anywhere in the
// exchange — the signal a half-duplex prober reads off the missing ACK.
func (v *fadeView) endFrame(delivered bool) {
	v.adapter.OnFrame(delivered && v.frameLost == 0)
}
