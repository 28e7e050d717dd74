package netsim

// Analytic fast path (Scenario.Analytic): instead of simulating a MAC
// exchange chunk by chunk, a singleton slot charges the closed-form
// EXPECTED airtime of the exchange and draws the frame's fate once as a
// Bernoulli with the closed-form delivery probability. The draw rides
// the tag's ordinary loss stream, so analytic runs keep the engine's
// determinism contract (byte-identical at any worker count); they are
// NOT byte-identical to exact runs — the exact engine remains the
// reference, and the analytic path is validated against it within a
// pinned tolerance on aggregate delivery and throughput (see
// analytic_test.go). The win is per-frame cost independent of frame
// length and loss rate, which is what makes million-tag parameter
// sweeps interactive.
//
// Fidelity contract (pinned by the tolerance test): delivery rate
// tracks the exact engine tightly (the closed forms for delivery are
// essentially exact under the engine's iid chunk loss). Airtime — and
// therefore throughput — is an OPTIMISTIC bound: the expected-value
// model omits the full-duplex abort/backoff idle time, the false-ACK
// resync cost, and (under rate adaptation) the adapter's warm-up below
// the oracle rate. Use analytic mode for coverage/delivery questions
// and capacity upper bounds, the exact engine for airtime-sensitive
// comparisons.
//
// Closed forms, per protocol, with p the chunk-loss probability, n the
// chunks per frame, and A the attempt budget:
//
//   - stop-and-wait retransmits whole frames: an attempt succeeds with
//     qf = (1-p)^n, the expected attempt count of the truncated
//     geometric is (1-(1-qf)^A)/qf, and every attempt pays the full
//     frame plus the ACK turnaround.
//   - block-ACK retransmits only lost chunks: the expected pending-chunk
//     count after k attempts is n*p^k, attempt k happens with
//     probability 1-(1-p^(k-1))^n and pays header + ACK plus the
//     pending chunks' airtime. A chunk survives A attempts undelivered
//     with probability p^A, so the frame delivers with (1-p^A)^n.
//   - full-duplex also retransmits per chunk, pays no ACK, and a chunk
//     leaves the queue only when delivered AND its feedback decoded
//     clean: the pending recursion uses 1-(1-p)(1-fbBER). Delivery
//     itself only needs the chunk through once, so the delivery
//     probability matches block-ACK's.
//
// Under rate adaptation the analytic model is the clairvoyant
// mean-channel bound: chunks go out at the oracle rate for the tag's
// current MEAN SNR (small-scale fading averaged out), chunk loss uses
// that rate's cliff at the mean SNR, and chunk airtime scales by the
// rate multiplier exactly as the exact engine's frameExtraBytes
// correction does. Adaptation counters accrue their expected values so
// the rate-mix report stays meaningful.

import (
	"math"

	"repro/internal/mac"
	"repro/internal/rateadapt"
)

// pendEps stops the expected-pending recursions once the remaining mass
// is far below one chunk; later attempts would add zero after rounding.
const pendEps = 1e-9

// analyticFrame replaces runFrame (plus the fade airtime correction) in
// analytic mode. Stream discipline matches the exact path: exactly one
// draw from the tag's loss stream per singleton slot.
func (e *engine) analyticFrame(i int32) mac.Result {
	t := &e.tags
	ts := &t.stats[i]
	p := ts.ChunkLossProb
	chunkAirF := float64(e.chunkAir)
	mult := 1.0
	ri := 0
	f := e.fade
	if f != nil {
		ri = f.oracleRate(ts.SNRdB)
		r := f.rates[ri]
		mult = r.Mult
		p = rateadapt.ChunkLossProb(r, ts.SNRdB)
		chunkAirF /= mult
	}
	if flt := e.flt; flt != nil {
		// Interference bursts compose into the chunk loss exactly as on
		// the exact path.
		if q := flt.cellLoss[t.reader[i]]; q > 0 {
			p += (1 - p) * q
		}
	}
	headerF := float64(e.params.HeaderAirBytes())
	ackF := float64(e.params.AckAirBytes())
	n := e.params.NumChunks()
	A := e.params.MaxAttempts

	var air, chunkTx, pDeliver, attempts float64
	switch e.sc.Protocol {
	case "stop-and-wait":
		qf := math.Pow(1-p, float64(n))
		pDeliver = 1 - math.Pow(1-qf, float64(A))
		eAtt := float64(A)
		if qf > 0 {
			eAtt = pDeliver / qf
		}
		air = eAtt * (headerF + float64(n)*chunkAirF + ackF)
		chunkTx = eAtt * float64(n)
		attempts = eAtt
	case "block-ack":
		pend := float64(n)
		failK := 1.0 // p^(k-1): P(one chunk still pending before attempt k)
		for k := 0; k < A && pend > pendEps; k++ {
			pAtt := 1 - math.Pow(1-failK, float64(n))
			air += pAtt*(headerF+ackF) + pend*chunkAirF
			chunkTx += pend
			attempts += pAtt
			pend *= p
			failK *= p
		}
		pDeliver = math.Pow(1-math.Pow(p, float64(A)), float64(n))
	default: // full-duplex
		fail := 1 - (1-p)*(1-ts.FeedbackBER)
		pend := float64(n)
		failK := 1.0
		for k := 0; k < A && pend > pendEps; k++ {
			pAtt := 1 - math.Pow(1-failK, float64(n))
			air += pAtt*headerF + pend*chunkAirF
			chunkTx += pend
			attempts += pAtt
			pend *= fail
			failK *= fail
		}
		pDeliver = math.Pow(1-math.Pow(p, float64(A)), float64(n))
	}

	delivered := t.loss[i].Bool(pDeliver)

	if f != nil {
		ci := int64(math.Round(chunkTx))
		ts.AdaptChunks += ci
		f.rateChunks[int(i)*f.nr+ri] += ci
		f.rateLost[int(i)*f.nr+ri] += int64(math.Round(chunkTx * p))
		f.invMult[i] += chunkTx / mult
		if int32(ri) != f.prevRate[i] {
			ts.RateSwitches++
			f.prevRate[i] = int32(ri)
		}
	}

	airB := int64(math.Round(air))
	mr := mac.Result{FramesSent: 1, ElapsedBytes: airB, AirtimeBytes: airB,
		Attempts: int64(math.Round(attempts))}
	if delivered {
		mr.FramesDelivered = 1
		mr.GoodputBytes = int64(e.params.PayloadBytes)
	}
	return mr
}
