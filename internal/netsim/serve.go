package netsim

// Serving singleton winners in lanes. Under rate adaptation every
// chunk's fate feeds back before the next chunk, so one frame is a
// serial chain per chunk: the fading step, FadeGainDB's Log,
// ChunkLossProb's Exp, the loss draw, the feedback flip, the adapter
// update. Different tags' chains are independent, so each worker keeps
// serveLanes frames in flight, one tag per lane, and runs each chunk as
// stages across the lanes: every fading step, then one Log pass, then
// every SNR and rate, then one Exp pass, then every draw and protocol
// step. The Log and Exp passes go through the vecmath kernels four
// lanes at a time. Each tag still draws only from its own streams, in
// the order a one-frame-at-a-time loop would, so every output is bit
// for bit what that loop produced. Without adaptation a chunk is one
// draw; staging those across lanes only added overhead, so such a
// frame runs to its end in one lane.

import (
	"math"
	"math/bits"

	"repro/internal/mac"
	"repro/internal/rateadapt"
	"repro/internal/vecmath"
)

// serveLanes is the number of singleton exchanges a worker keeps in
// flight: two four-lane groups for the Log and Exp kernels. On
// BenchmarkServe 4 and 16 lanes time the same as 8: million's frames
// are one chunk each, so the per-frame bookkeeping and the per-tag rows'
// cache misses, not the kernels' latency, set the pace there.
const serveLanes = 8

// lane is one singleton winner's frame in flight: the bound tag and
// the active cell whose serve row it sums into, its protocol machine
// and the Result that machine fills, and under rate adaptation the
// lane's adapter, with the tag's state loaded, plus the frame's
// accumulators: whether any chunk was lost, and the sum of 1/m over
// its chunks (res.ChunkTx counts them). The tag's streams and rows are
// reached through i in functions that take it as a parameter, so the
// shardwrite analyzer checks every draw and write against it.
type lane struct {
	i       int32
	ci      int16 // -1 while the lane is free; Validate caps readers at 64
	lost    bool
	x       mac.Exchange
	res     mac.Result
	adapter rateadapt.Adapter // a copy of the shared policy (fixed: the policy itself)
	invMult float64
}

// laneSet is a worker's lanes and how many of them are busy.
type laneSet struct {
	ln    [serveLanes]lane
	nbusy int
}

// init builds the lanes' protocol machines and adapters; without
// rate adaptation only lane 0 serves (see serve). Called once per
// worker at pool start, so serving never allocates.
func (ls *laneSet) init(e *engine) {
	for k := range ls.ln {
		ln := &ls.ln[k]
		ln.ci = -1
		if e.fade == nil && k > 0 {
			continue
		}
		switch e.sc.Protocol {
		case "stop-and-wait":
			ln.x = &mac.StopAndWait{P: e.params}
		case "block-ack":
			ln.x = &mac.BlockACK{P: e.params}
		default:
			fd := &mac.FullDuplex{P: e.params}
			fd.Prime()
			ln.x = fd
		}
		if e.fade == nil {
			continue
		}
		switch a := e.fade.policy.(type) {
		case *rateadapt.ARF:
			c := *a
			ln.adapter = &c
		case *rateadapt.FullDuplex:
			c := *a
			ln.adapter = &c
		default:
			ln.adapter = a
		}
	}
}

// serve carries singleton winner i's head-of-line frame through its
// slot, summing the slot into the worker's serve row for active cell
// ci. The analytic engine books it at once, and so does a run without
// rate adaptation, in lane 0: its chunks are one draw each, with
// nothing to stage. Otherwise the frame takes a free lane, after the
// lanes step until one frees, and may still be in flight when serve
// returns; flushLanes finishes every frame before the shard ends.
//
//fdlint:parallel
//fdlint:noalloc
func (e *engine) serve(w *netWorker, ci int, i int32) {
	if e.analytic {
		mr := e.analyticFrame(i)
		e.finishFrame(&w.serve[ci], i, &mr, 0)
		return
	}
	ls := &w.lanes
	if e.fade == nil {
		ln := &ls.ln[0]
		e.bindLane(w, ln, ci, i)
		for ln.ci >= 0 {
			e.laneNeed(w, ln, ln.x.Chunk(&ln.res, e.staticChunk(i)))
		}
		return
	}
	for ls.nbusy == serveLanes {
		e.stepLanes(w)
	}
	for k := range ls.ln {
		if ls.ln[k].ci < 0 {
			e.bindLane(w, &ls.ln[k], ci, i)
			return
		}
	}
}

// flushLanes steps w's lanes until every frame in flight is finished.
//
//fdlint:parallel
//fdlint:noalloc
func (e *engine) flushLanes(w *netWorker) {
	for w.lanes.nbusy > 0 {
		e.stepLanes(w)
	}
}

// bindLane starts tag i's frame in ln: it loads the tag's adapter
// state, draws the full-duplex seed from the tag's protocol stream and
// opens the exchange.
//
//fdlint:parallel
//fdlint:noalloc
func (e *engine) bindLane(w *netWorker, ln *lane, ci int, i int32) {
	t := &e.tags
	ln.i, ln.ci = i, int16(ci)
	if f := e.fade; f != nil {
		switch a := ln.adapter.(type) {
		case *rateadapt.ARF:
			a.SetState(int(f.rateIdx[i]), int(f.goodRun[i]), int(f.badRun[i]))
		case *rateadapt.FullDuplex:
			a.SetState(int(f.rateIdx[i]), int(f.goodRun[i]))
		}
		ln.lost, ln.invMult = false, 0
	}
	if fd, ok := ln.x.(*mac.FullDuplex); ok {
		// A fresh seed per transmission keeps feedback-decoding
		// randomness independent across frames.
		fd.P.FeedbackBER = t.stats[i].FeedbackBER
		fd.Reseed(t.proto[i].Uint64())
	}
	w.lanes.nbusy++
	ln.res = mac.Result{}
	e.laneNeed(w, ln, ln.x.Begin(&ln.res))
}

// stepLanes answers one chunk for every busy lane, stage by stage, and
// finishes the frames that end. Only runs under rate adaptation step.
//
//fdlint:parallel
//fdlint:noalloc
func (e *engine) stepLanes(w *netWorker) {
	ls := &w.lanes
	f := e.fade
	// The staged chain's columns, one slot per lane: x holds the fading
	// power, then its Log; after the SNR pass it holds the logistic
	// argument, then its Exp. A free lane's slot holds a harmless 1
	// (Log) or 0 (Exp).
	var x, snr [serveLanes]float64
	var ri [serveLanes]int
	if f.rho > 0 {
		// The fading step and the floored power FadeGainDB takes the
		// Log of.
		for k := range ls.ln {
			x[k] = 1
			if ln := &ls.ln[k]; ln.ci >= 0 {
				x[k] = rateadapt.FadePower(e.advanceFade(ln.i, 1))
			}
		}
		applyKernel(x[:], vecmath.Log, math.Log)
	}
	// The SNR around the fading mean, in dB as FadeGainDB computes it
	// (10*Log10 is Log times 1/Ln10, times 10), the adapter's rate, and
	// ChunkLossProb's logistic argument.
	for k := range ls.ln {
		ln := &ls.ln[k]
		if ln.ci < 0 {
			x[k] = 0
			continue
		}
		s := e.tags.stats[ln.i].SNRdB
		if f.rho > 0 {
			s += 10 * (x[k] * (1 / math.Ln10))
		}
		r := ln.adapter.Rate()
		snr[k], ri[k] = s, r
		x[k] = (s - f.rates[r].ReqSNRdB) / 0.5
	}
	applyKernel(x[:], vecmath.Exp, math.Exp)
	for k := range ls.ln {
		if ln := &ls.ln[k]; ln.ci >= 0 {
			lost := e.adaptedChunk(ln, ln.i, snr[k], ri[k], 1/(1+x[k]))
			e.laneNeed(w, ln, ln.x.Chunk(&ln.res, lost))
		}
	}
}

// staticChunk draws whether tag i's chunk is lost, at its geometric
// ChunkLossProb composed with its cell's interference burst.
//
//fdlint:parallel
//fdlint:noalloc
func (e *engine) staticChunk(i int32) bool {
	return e.tags.loss[i].Bool(e.burst(i, e.tags.stats[i].ChunkLossProb))
}

// adaptedChunk draws whether tag i's chunk in flight in ln is lost,
// at p: ChunkLossProb at the chunk's SNR and rate ri. It books the
// chunk in the tag's adaptation counters and feeds the adapter the
// chunk's feedback bit, which flips with the tag's feedback BER under
// fd.
//
//fdlint:parallel
//fdlint:noalloc
func (e *engine) adaptedChunk(ln *lane, i int32, snr float64, ri int, p float64) bool {
	t, f := &e.tags, e.fade
	ts := &t.stats[i]
	if int32(ri) != f.prevRate[i] {
		ts.RateSwitches++
		f.prevRate[i] = int32(ri)
	}
	lost := t.loss[i].Bool(e.burst(i, p))
	inv := 1 / f.rates[ri].Mult
	ln.invMult += inv
	ts.AdaptChunks++
	f.invMult[i] += inv
	row := int(i) * f.nr
	f.rateChunks[row+ri]++
	if lost {
		f.rateLost[row+ri]++
		ln.lost = true
	}
	if ri != f.oracleRate(snr) {
		ts.AdaptLagChunks++
	}
	fb := !lost
	if ber := ts.FeedbackBER; f.fdFB && ber > 0 && f.fadeSrc[i].Bool(ber) {
		fb = !fb
	}
	ln.adapter.OnChunk(fb)
	return lost
}

// burst composes the interference burst on tag i's cell into a chunk
// loss probability p: a chunk survives only if it clears both the
// link's loss and the burst.
func (e *engine) burst(i int32, p float64) float64 {
	if f := e.flt; f != nil {
		if q := f.cellLoss[e.tags.reader[i]]; q > 0 {
			p += (1 - p) * q
		}
	}
	return p
}

// advanceFade steps tag i's Gauss-Markov fading n chunk-times (the
// rateadapt.RunTrace recursion) and returns the new coefficient.
//
//fdlint:parallel
//fdlint:noalloc
func (e *engine) advanceFade(i int32, n int) complex128 {
	f := e.fade
	h := f.h[i]
	for range n {
		h = rateadapt.FadeStep(h, f.rho, f.sigma, &f.fadeSrc[i])
	}
	f.h[i] = h
	return h
}

// laneNeed carries out what ln's exchange asked for: an idle backoff
// advances the tag's fading in place (the channel keeps evolving while
// the tag waits), and a finished frame frees the lane.
func (e *engine) laneNeed(w *netWorker, ln *lane, nd mac.Need) {
	if f := e.fade; f != nil && f.rho > 0 && nd.Idle > 0 {
		e.advanceFade(ln.i, nd.Idle)
	}
	if nd.Done {
		e.endLane(w, ln, ln.i)
	}
}

// endLane books ln's finished frame of tag i and frees the lane. Under
// rate adaptation a chunk at multiplier m occupies chunkAir/m
// byte-times, so the exchange's clock and airtime shift by
// chunkAir*(sum(1/m) - chunks), exactly zero when every chunk ran at
// 1x; the adapter then gets the end-of-frame verdict the frame-probing
// policies learn from (clean only when delivered with no chunk lost)
// and its state goes back to the tag's row.
//
//fdlint:parallel
//fdlint:noalloc
func (e *engine) endLane(w *netWorker, ln *lane, i int32) {
	var extra int64
	if f := e.fade; f != nil {
		extra = int64(math.Round(float64(e.chunkAir) * (ln.invMult - float64(ln.res.ChunkTx))))
		ln.adapter.OnFrame(ln.res.FramesDelivered == 1 && !ln.lost)
		switch a := ln.adapter.(type) {
		case *rateadapt.ARF:
			idx, good, bad := a.State()
			f.rateIdx[i], f.goodRun[i], f.badRun[i] = int32(idx), streak32(good), streak32(bad)
		case *rateadapt.FullDuplex:
			idx, good := a.State()
			f.rateIdx[i], f.goodRun[i] = int32(idx), streak32(good)
		}
	}
	sa := &w.serve[ln.ci]
	ln.ci = -1
	w.lanes.nbusy--
	e.finishFrame(sa, i, &ln.res, extra)
}

// finishFrame books tag i's served frame, whose exchange filled mr
// (extra is the rate-adaptation airtime correction): queue movement,
// delivery accounting, the congestion controller's delivery/failure
// feedback, and the slot's elapsed byte-time, goodput and delivery in
// sa. What it writes is tag i's own state plus integer sums in sa, so
// a cell's winners may finish in any order, on any worker, with the
// same result.
//
//fdlint:parallel
//fdlint:noalloc
func (e *engine) finishFrame(sa *serveAcc, i int32, mr *mac.Result, extra int64) {
	t := &e.tags
	elapsed, air := mr.ElapsedBytes+extra, mr.AirtimeBytes+extra
	t.queue[i]--
	t.stats[i].AirtimeBytes += air
	t.stats[i].MACAttempts += mr.Attempts
	if mr.FramesDelivered == 1 {
		t.stats[i].FramesDelivered++
		sa.delivered++
		sa.goodput += mr.GoodputBytes
		if c := e.cong; c != nil {
			c.onDelivery(int(i), e.curRound)
		}
	} else if c := e.cong; c != nil {
		// MAC-attempt exhaustion is a loss event: the frame parks on
		// the retx queue under multiplicative decrease and backoff
		// instead of hammering the cell again next round.
		c.lossEvent(t, int(i), e.curRound)
		c.park(t, int(i), e.curRound)
	} else {
		// Undelivered after MaxAttempts: re-queue for a later
		// round (unless the open-loop queue refilled).
		if int(t.queue[i]) < e.sc.QueueCap {
			t.queue[i]++
		} else {
			t.stats[i].FramesDropped++
		}
	}
	if s := e.sched; s != nil && t.queue[i] > 0 {
		// The departed head exposes the next frame; it starts aging
		// from the round it became head.
		s.backlogSince[i] = int32(e.curRound)
	}
	// Energy is settled once at round end; record how long this
	// tag spent transmitting so its harvest and draw can be
	// adjusted there.
	t.txCount[i]++
	t.txDt[i] += float64(elapsed) * e.secondsPerByte
	sa.elapsed += elapsed
}

// applyKernel sets x[k] = scalar(x[k]) for every k, bit for bit, the
// leading groups of four through kernel (vecmath.Log or vecmath.Exp)
// and any group it stops at through scalar.
func applyKernel(x []float64, kernel func(dst, x []float64) int, scalar func(float64) float64) {
	for k := 0; k < len(x); {
		k += kernel(x[k:], x[k:])
		for end := min(k+4, len(x)); k < end; k++ {
			x[k] = scalar(x[k])
		}
	}
}

// serveShard is the parallel body of the ALOHA serve phase for tags
// [lo, hi): each contender whose reader's cell is open either won its
// slot alone (its bit is not in the cell's slotMany set), and is
// served, or collided, and is charged. The contenders are the tags
// drawSlots' contender pass marked in tagBits, so this pass visits
// exactly the tags drawSlots drew for (t.reader[i] == r exactly when i
// is in cellTags(r): deriveLinks rebuilds the CSR index from t.reader,
// which nothing else writes).
// Service order is free: everything a singleton exchange writes belongs
// to its tag (queue, stats, stream words, fade and congestion rows) or
// is an integer sum in this worker's serve row for the cell, and a tag
// either wins its slot or collides, never both. So the winners fill the
// lanes in tag order and finish in whatever order their frames end.
// Part of the round loop guarded by TestRoundLoopAllocFree, sharded
// rows included.
//
//fdlint:parallel
//fdlint:noalloc
func (e *engine) serveShard(w *netWorker, lo, hi int) {
	t := &e.tags
	nw := e.slotWords
	// lo is a multiple of 64, and no bit at or past the tag count is
	// ever set.
	for k, word := range e.tagBits[lo>>6 : (hi+63)>>6] {
		for ; word != 0; word &= word - 1 {
			i := lo + k<<6 + bits.TrailingZeros64(word)
			ci := int(e.cellOf[t.reader[i]])
			if ci < 0 {
				continue
			}
			s := e.slotChoice[i]
			if e.slotMany[ci*nw+int(s>>6)]&(uint64(1)<<(s&63)) == 0 {
				e.serve(w, ci, int32(i))
				continue
			}
			// A colliding tag was on air until the reader shut the slot
			// down, so it pays the transmit energy for that airtime at
			// round-end settlement just like a singleton winner does — the
			// frame itself stays queued.
			t.stats[i].Collisions++
			t.txCount[i]++
			t.txDt[i] += float64(e.collisionCost) * e.secondsPerByte
		}
	}
	e.flushLanes(w)
}
