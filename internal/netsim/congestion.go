package netsim

// Closed-loop congestion control: every tag can carry a congestion
// window with EWMA RTT estimation (SRTT/RTTVAR and a Jacobson-style
// RTO), cubic-style window growth on delivery and multiplicative
// decrease on timeout, and a bounded retransmission queue with
// exponential backoff + jitter. The controller closes the loop the MAC
// alone cannot: an overloaded cell stops being hammered by every
// backlogged tag every round, because each tag paces fresh frames by
// cwnd/SRTT and parks timed-out service into the retx queue — the
// dynamic that makes congestion collapse recoverable instead of
// terminal.
//
// State lives in parallel columns (congState) sized once at setup, the
// eligibility pass runs as its own sharded phase (phaseCong), and the
// retx jitter rides each tag's existing seeded protocol stream — so a
// congestion-controlled run stays 0 allocs/op in the round loop and
// byte-identical at any worker count, and a scenario with the spec
// disabled is byte-for-byte the pre-congestion engine.
//
// This file also hosts the reader-side admission policies
// (schedState): FIFO, proportional-fair and deadline scheduling
// replace pure-ALOHA contention with collision-free grant lists, the
// reader-driven half of closed-loop flow control.

import (
	"math"
)

// CongestionCubic names the cubic controller for
// CongestionSpec.Controller.
const CongestionCubic = "cubic"

// paceBurst caps the pacing token bucket: a tag that sat idle cannot
// save up more than one window-opening worth of credit.
const paceBurst = 1.0

// CongestionSpec configures optional closed-loop per-tag congestion
// control for a Scenario. The zero value disables it entirely: the
// engine then runs the always-contend MAC, byte-for-byte identical to
// scenarios that predate this spec.
type CongestionSpec struct {
	// Controller selects the window-growth law: "" (disabled) or
	// CongestionCubic.
	Controller string `json:"controller"`
	// RTOMinRounds / RTOMaxRounds clamp the retransmission timeout, in
	// rounds (defaults 2 and 64). The floor keeps zero-variance RTT
	// estimates from collapsing the timeout to the sample itself.
	RTOMinRounds float64 `json:"rto_min_rounds"`
	RTOMaxRounds float64 `json:"rto_max_rounds"`
	// InitialRTORounds seeds the timeout before the first RTT sample
	// (default 4, clamped into [RTOMinRounds, RTOMaxRounds]).
	InitialRTORounds float64 `json:"initial_rto_rounds"`
	// MaxBackoff bounds the exponential backoff doubling applied to the
	// RTO across consecutive timeouts (default 6: up to 64x).
	MaxBackoff int `json:"max_backoff"`
	// RetxCap bounds the per-tag retransmission queue (default 8);
	// frames timed out beyond it are dropped and counted.
	RetxCap int `json:"retx_cap"`
	// Beta is the multiplicative-decrease factor: a timeout shrinks
	// cwnd to cwnd*(1-Beta) (default 0.3, the cubic convention).
	Beta float64 `json:"beta"`
	// CubicC scales the cubic growth polynomial (default 0.4).
	CubicC float64 `json:"cubic_c"`
	// JitterFrac spreads retx backoff delays by up to this fraction
	// (default 0.5), with the jitter drawn from the tag's existing
	// seeded protocol stream. Zero selects the default; any negative
	// value requests genuinely jitter-free backoff (the explicit-zero
	// sentinel, mirroring IsolationdB).
	JitterFrac float64 `json:"jitter_frac"`
}

func (c CongestionSpec) enabled() bool { return c.Controller != "" }

// congState is the per-tag congestion-control state as parallel
// columns, allocated once at setup (nil on the engine when the spec is
// disabled). A tag's row is touched by exactly one goroutine per
// phase — its tag shard in phaseCong and phaseServe, its reader cell's
// owner in phaseGrants — so no synchronisation is needed. The whole-run
// counters accumulate straight into the tag's TagStats row.
type congState struct {
	queueCap   float64
	rtoMin     float64
	rtoMax     float64
	beta       float64
	cubicC     float64
	jitter     float64
	maxBackoff uint8
	retxCap    int32

	// Window and estimator columns. srtt < 0 means no sample yet;
	// epoch < 0 means no loss event yet (pre-cubic additive climb).
	cwnd   []float64
	srtt   []float64
	rttvar []float64
	rto    []float64
	wMax   []float64
	epoch  []int32
	// Pacing and service columns: pace is the fractional send-credit
	// bucket, servStart the round the in-flight frame entered service.
	pace      []float64
	eligible  []bool
	inServ    []bool
	isRetx    []bool
	servStart []int32
	// Retransmission queue: retxQ parked frames (fungible — the queue
	// holds a count, not identities), retxAt the head frame's
	// re-admission deadline, backoff the consecutive-timeout exponent.
	retxQ   []int32
	retxAt  []float64
	backoff []uint8
}

// newCongState allocates and initialises the columns for n tags.
func newCongState(spec CongestionSpec, n, queueCap int) *congState {
	c := &congState{
		queueCap:   float64(queueCap),
		rtoMin:     spec.RTOMinRounds,
		rtoMax:     spec.RTOMaxRounds,
		beta:       spec.Beta,
		cubicC:     spec.CubicC,
		jitter:     spec.JitterFrac,
		maxBackoff: uint8(spec.MaxBackoff),
		retxCap:    int32(spec.RetxCap),
		cwnd:       make([]float64, n),
		srtt:       make([]float64, n),
		rttvar:     make([]float64, n),
		rto:        make([]float64, n),
		wMax:       make([]float64, n),
		epoch:      make([]int32, n),
		pace:       make([]float64, n),
		eligible:   make([]bool, n),
		inServ:     make([]bool, n),
		isRetx:     make([]bool, n),
		servStart:  make([]int32, n),
		retxQ:      make([]int32, n),
		retxAt:     make([]float64, n),
		backoff:    make([]uint8, n),
	}
	rto0 := spec.InitialRTORounds
	if rto0 < c.rtoMin {
		rto0 = c.rtoMin
	}
	if rto0 > c.rtoMax {
		rto0 = c.rtoMax
	}
	for i := 0; i < n; i++ {
		c.cwnd[i] = 1
		c.srtt[i] = -1
		c.rto[i] = rto0
		c.epoch[i] = -1
	}
	return c
}

// rtoEff is tag i's current backed-off timeout in rounds: the Jacobson
// RTO doubled per consecutive timeout, capped at the configured
// maximum.
//
//fdlint:noalloc
func (c *congState) rtoEff(i int) float64 {
	d := c.rto[i] * float64(int64(1)<<c.backoff[i])
	if d > c.rtoMax {
		d = c.rtoMax
	}
	return d
}

// backoffDelay draws tag i's next retx re-admission delay: the
// backed-off RTO stretched by up to JitterFrac, with the jitter drawn
// from the tag's existing seeded protocol stream (the one runFrame's
// full-duplex seed draw uses), so delays desynchronise
// deterministically.
//
//fdlint:parallel
//fdlint:noalloc
func (c *congState) backoffDelay(t *tagState, i int) float64 {
	d := c.rtoEff(i)
	if c.jitter > 0 {
		d *= 1 + c.jitter*t.proto[i].Float64()
	}
	return d
}

// park moves tag i's dequeued in-flight frame onto the retransmission
// queue (or drops it when the queue is full). The caller has already
// taken the frame off the transmit queue.
//
//fdlint:parallel
//fdlint:noalloc
func (c *congState) park(t *tagState, i, round int) {
	if c.retxQ[i] >= c.retxCap {
		t.stats[i].FramesDropped++
		t.stats[i].RetxDropped++
		return
	}
	if c.retxQ[i] == 0 {
		c.retxAt[i] = float64(round) + c.backoffDelay(t, i)
	}
	c.retxQ[i]++
}

// lossEvent applies a multiplicative decrease and opens a new cubic
// epoch — shared by RTO expiry and MAC-attempt exhaustion.
//
//fdlint:noalloc
func (c *congState) lossEvent(t *tagState, i, round int) {
	t.stats[i].Timeouts++
	c.inServ[i] = false
	c.wMax[i] = c.cwnd[i]
	c.cwnd[i] *= 1 - c.beta
	if c.cwnd[i] < 1 {
		c.cwnd[i] = 1
	}
	c.epoch[i] = int32(round)
	if c.backoff[i] < c.maxBackoff {
		c.backoff[i]++
	}
}

// onDelivery closes the loop for a delivered frame: a Karn-filtered
// RTT sample updates SRTT/RTTVAR and the RTO (samples from
// retransmitted frames are ambiguous and skipped), the backoff
// exponent resets, and the window grows along the cubic curve.
//
//fdlint:parallel
//fdlint:noalloc
func (c *congState) onDelivery(i, round int) {
	if !c.isRetx[i] {
		rtt := float64(round-int(c.servStart[i])) + 1
		if c.srtt[i] < 0 {
			c.srtt[i] = rtt
			c.rttvar[i] = rtt / 2
		} else {
			d := c.srtt[i] - rtt
			if d < 0 {
				d = -d
			}
			c.rttvar[i] += (d - c.rttvar[i]) / 4
			c.srtt[i] += (rtt - c.srtt[i]) / 8
		}
		rto := c.srtt[i] + 4*c.rttvar[i]
		if rto < c.rtoMin {
			rto = c.rtoMin
		}
		if rto > c.rtoMax {
			rto = c.rtoMax
		}
		c.rto[i] = rto
	}
	c.inServ[i] = false
	c.backoff[i] = 0

	// Window growth: additive climb until the first loss event sets a
	// cubic epoch, then chase the cubic target w(t) = C(t-K)^3 + wMax
	// with the standard per-delivery increment.
	if c.epoch[i] < 0 {
		c.cwnd[i]++
	} else {
		t := float64(round) - float64(c.epoch[i])
		k := math.Cbrt(c.wMax[i] * c.beta / c.cubicC)
		target := c.cubicC*(t-k)*(t-k)*(t-k) + c.wMax[i]
		if target > c.cwnd[i] {
			c.cwnd[i] += (target - c.cwnd[i]) / c.cwnd[i]
		} else {
			c.cwnd[i] += 0.01 / c.cwnd[i]
		}
	}
	if c.cwnd[i] > c.queueCap {
		c.cwnd[i] = c.queueCap
	}
	if c.cwnd[i] < 1 {
		c.cwnd[i] = 1
	}
}

// congShard is the parallel body of the per-round congestion pass for
// tags [lo, hi): RTO expiry for in-flight service, retx re-admission,
// and the cwnd/SRTT pacing gate that decides whether the tag contends
// this round. Runs after arrivals and before the slot draws; each
// tag's row is independent, so the result is identical however the
// ranges are sharded.
//
//fdlint:parallel
//fdlint:noalloc
func (e *engine) congShard(w *netWorker, lo, hi int) {
	c := e.cong
	t := &e.tags
	round := e.curRound
	flt := e.flt
	for i := lo; i < hi; i++ {
		c.eligible[i] = false
		if !t.alive[i] {
			continue
		}
		if flt != nil && flt.dormant[i] {
			// A churned-away tag keeps its timers running: an RTO that
			// fires while it is gone becomes backoff it returns with.
			if c.inServ[i] && float64(round-int(c.servStart[i])) >= c.rtoEff(i) {
				c.lossEvent(t, i, round)
				// The flushed departure already dropped the frame, so
				// nothing is parked; stale service just ends.
				if t.queue[i] > 0 {
					t.queue[i]--
					c.park(t, i, round)
				}
			}
			continue
		}
		if c.inServ[i] {
			if float64(round-int(c.servStart[i])) < c.rtoEff(i) {
				// In-flight frame keeps contending until delivery or RTO.
				c.eligible[i] = true
				continue
			}
			// RTO fired: multiplicative decrease, park the frame for a
			// backed-off, jittered retransmission, sit out this round.
			c.lossEvent(t, i, round)
			t.queue[i]--
			c.park(t, i, round)
			continue
		}
		if c.retxQ[i] > 0 {
			// Head-of-line: parked frames block fresh ones until their
			// backoff deadline passes.
			if float64(round) >= c.retxAt[i] {
				c.retxQ[i]--
				t.queue[i]++
				t.stats[i].Retransmissions++
				if c.retxQ[i] > 0 {
					c.retxAt[i] = float64(round) + c.backoffDelay(t, i)
				}
				c.inServ[i] = true
				c.isRetx[i] = true
				c.servStart[i] = int32(round)
				c.eligible[i] = true
				if s := e.sched; s != nil && t.queue[i] == 1 {
					s.backlogSince[i] = int32(round)
				}
			}
			continue
		}
		if t.queue[i] == 0 {
			continue
		}
		// Pacing gate for a fresh frame: accrue cwnd/SRTT send credit
		// per round (full credit before the first RTT sample) and start
		// service once a whole token is banked.
		rate := 1.0
		if c.srtt[i] > 0 && c.cwnd[i] < c.srtt[i] {
			rate = c.cwnd[i] / c.srtt[i]
		}
		c.pace[i] += rate
		if c.pace[i] > paceBurst {
			c.pace[i] = paceBurst
		}
		if c.pace[i] >= 1 {
			c.pace[i]--
			c.inServ[i] = true
			c.isRetx[i] = false
			c.servStart[i] = int32(round)
			c.eligible[i] = true
		}
	}
}

// Reader scheduling policy names for ReaderSpec.Policy.
const (
	// PolicyAloha is the default framed-slotted-ALOHA contention: every
	// backlogged tag draws a slot, collisions burn airtime.
	PolicyAloha = "aloha"
	// PolicyFIFO polls tags oldest-backlog-first: the reader grants up
	// to ContentionWindow collision-free slots per round.
	PolicyFIFO = "fifo"
	// PolicyPropFair grants by waiting time divided by accumulated
	// service, so starved tags overtake well-served ones.
	PolicyPropFair = "prop-fair"
	// PolicyDeadline is earliest-deadline-first with deadline-miss
	// drops: a head frame older than DeadlineRounds is discarded.
	PolicyDeadline = "deadline"
)

// schedState is the reader-side scheduling state shared by the
// non-ALOHA policies: per-tag head-of-line backlog timestamps that the
// grant metrics read. Grant selection itself runs per cell in the
// grant phase on the cell owner's scratch.
type schedState struct {
	policy   string
	deadline int32
	// backlogSince[i] is the round tag i's current head-of-line frame
	// started waiting (maintained at arrivals and head departures).
	backlogSince []int32
}

func newSchedState(spec ReaderSpec, n int) *schedState {
	return &schedState{
		policy:       spec.Policy,
		deadline:     int32(spec.DeadlineRounds),
		backlogSince: make([]int32, n),
	}
}

// metric is tag i's grant priority this round (higher first; ties go
// to the lower tag index).
//
//fdlint:noalloc
func (s *schedState) metric(i, round int, t *tagState) float64 {
	wait := float64(round - int(s.backlogSince[i]))
	if s.policy == PolicyPropFair {
		return wait / float64(1+t.stats[i].FramesDelivered)
	}
	// FIFO and deadline both order by waiting time: EDF over uniform
	// per-frame deadlines is oldest-first; the policies differ in the
	// deadline-miss drops applied before the grant pass.
	return wait
}

// dropDeadlines is the serial pre-pass of PolicyDeadline: each round,
// a head-of-line frame older than the deadline is dropped (at most one
// per tag per round — the new head starts aging immediately). Frames
// owned by the congestion controller's in-flight service are exempt;
// the RTO machinery owns their fate.
//
//fdlint:noalloc
func (e *engine) dropDeadlines(round int) {
	s := e.sched
	t := &e.tags
	for i := 0; i < t.len(); i++ {
		if !t.alive[i] || t.queue[i] == 0 {
			continue
		}
		if e.flt != nil && e.flt.dormant[i] {
			continue
		}
		if e.cong != nil && e.cong.inServ[i] {
			continue
		}
		if round-int(s.backlogSince[i]) > int(s.deadline) {
			t.queue[i]--
			t.stats[i].FramesDropped++
			if t.queue[i] > 0 {
				s.backlogSince[i] = int32(round)
			}
		}
	}
}

// runPolicyCell executes one reader's window under a non-ALOHA policy:
// the top-ContentionWindow eligible tags by policy metric are granted
// collision-free singleton slots (insertion into the worker's
// preallocated grant scratch — O(contenders x cw), no allocation, no
// slotSrc draws), the rest of the window elapses idle. The grants'
// exchanges sum into the worker's serve row for the cell, which
// reduceWindows folds in like the ALOHA phase's. Part of the round loop
// guarded by TestRoundLoopAllocFree.
//
//fdlint:parallel
//fdlint:noalloc
func (e *engine) runPolicyCell(w *netWorker, ci int) {
	cw := e.sc.ContentionWindow
	r := int(e.activeCells[ci])
	t := &e.tags
	s := e.sched
	round := e.curRound

	gi := w.grantIdx[:0]
	gm := w.grantMetric[:0]
	for _, i := range e.cellTags(r) {
		if !e.contends(i) {
			continue
		}
		m := s.metric(int(i), round, t)
		pos := len(gm)
		for pos > 0 && m > gm[pos-1] {
			pos--
		}
		if pos == len(gm) {
			if len(gm) < cw {
				gi = append(gi, i)
				gm = append(gm, m)
			}
			continue
		}
		if len(gm) < cw {
			gi = append(gi, 0)
			gm = append(gm, 0)
		}
		copy(gi[pos+1:], gi[pos:])
		copy(gm[pos+1:], gm[pos:])
		gi[pos] = i
		gm[pos] = m
	}

	sa := &w.serve[ci]
	for _, i := range gi {
		e.serveSlot(w, sa, i)
	}
	granted, idle := int64(len(gi)), int64(cw-len(gi))
	e.rstats[r].SingletonSlots += granted
	e.cellAcc[ci] = cellAcc{singletonSlots: granted, idleSlots: idle, windowBytes: idle * e.chunkAir}
}
