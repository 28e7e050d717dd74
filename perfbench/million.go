package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/netsim"
)

// million: one operation is the work of
// `fdnet -preset million -summary -workers 2`: an exact run of the
// 2^20-tag preset on the batch path. Its aggregates must match a serial
// reference run made at set-up or, at the default seed, the pinned digest.

func millionScenario(sc scale) (netsim.Scenario, error) {
	s, err := netsim.Preset("million")
	if err != nil {
		return s, err
	}
	if sc.millionTags > 0 {
		s.Tags = sc.millionTags
	}
	return s, nil
}

// setUpMillion is what fdnet does before it runs: resolve and validate
// the scenario.
func setUpMillion() (func(), error) {
	s, err := millionScenario(scale{})
	if err != nil {
		return nil, err
	}
	s.ApplyDefaults()
	return func() {}, s.Validate()
}

type millionSession struct {
	sc   netsim.Scenario
	seed uint64
	want string // digest every run must produce
	// streamed runs untraced operations on the streaming path, as traced
	// ones run, instead of the batch path.
	streamed bool
}

func prepareMillion(seed uint64, sc scale) (session, error) {
	s, err := millionScenario(sc)
	if err != nil {
		return nil, err
	}
	m := &millionSession{sc: s, seed: seed}
	if seed == defaultSeed && sc.millionTags == 0 {
		m.want = pinnedMillionSHA256
		return m, nil
	}
	ref, err := netsim.Run(s, seed)
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	m.want = resultDigest(ref)
	return m, nil
}

// resultDigest hashes a run's aggregates: the totals, the per-reader
// statistics and per-tag sums of the counters the summary reports.
func resultDigest(r *netsim.NetResult) string {
	h := sha256.New()
	f := math.Float64bits
	fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d %d %x\n", r.Rounds, r.FramesOffered, r.FramesDelivered,
		r.FramesDropped, r.GoodputBytes, r.ElapsedBytes, r.IdleSlots, r.SingletonSlots,
		r.CollisionSlots, r.CollisionBytes, f(r.SimulatedS))
	fmt.Fprintf(h, "%d %d %d %d %d %d %x %x %x %x %x\n", r.RateSwitches, r.AdaptChunks, r.AdaptLagChunks,
		r.Timeouts, r.Retransmissions, r.RetxDropped, f(r.MeanRateMult()), f(r.MeanCwnd()),
		f(r.FairnessIndex()), f(r.AliveFraction()), f(r.MeanLifetimeS()))
	for _, rs := range r.Readers {
		fmt.Fprintf(h, "%+v\n", rs)
	}
	var attempts, collisions, airtime int64
	for i := range r.Tags {
		t := &r.Tags[i]
		attempts += t.MACAttempts
		collisions += int64(t.Collisions)
		airtime += t.AirtimeBytes
	}
	fmt.Fprintf(h, "%d %d %d %d\n", len(r.Tags), attempts, collisions, airtime)
	return hex.EncodeToString(h.Sum(nil))
}

func (m *millionSession) run(deadline time.Time, tr *tracer) *opLog {
	log := newOpLog()
	for {
		// Each run starts from a collected heap, as a fresh fdnet
		// process does.
		g0 := time.Now()
		runtime.GC()
		tr.add(0, 0, "harness.gc", g0, time.Now())

		t0 := time.Now()
		var res *netsim.NetResult
		var err error
		if tr == nil && !m.streamed {
			res, err = netsim.RunParallel(m.sc, m.seed, workers)
		} else {
			res, _, err = m.tracedRun(tr, nil)
		}
		t1 := time.Now()
		ok := err == nil && resultDigest(res) == m.want
		tr.add(0, 0, "harness.verify", t1, time.Now())
		log.add(t1.Sub(t0), t1.Sub(t0), ok)
		if !time.Now().Before(deadline) {
			return log.done()
		}
	}
}

// roundTimes are the sink timestamps of one streamed run: start, one
// per round, and the return.
type roundTimes struct {
	start  time.Time
	rounds []time.Time
	end    time.Time
}

// tracedRun runs the scenario on the streaming path with a sink that
// only timestamps, recording a netsim.run span with one netsim.round
// child per round (sink to sink; round 1 includes engine set-up) and a
// netsim.drain child from the last round to the return; a nil tracer
// records nothing. onRound, when set, runs in the sink after each round's
// timestamp is taken.
func (m *millionSession) tracedRun(tr *tracer, onRound func(round int)) (*netsim.NetResult, roundTimes, error) {
	id := tr.newID()
	rt := roundTimes{start: time.Now()}
	prev := rt.start
	res, err := netsim.RunStreamOptions(context.Background(), m.sc, m.seed, netsim.StreamOptions{Workers: workers},
		func(snap *netsim.RoundSnapshot) error {
			now := time.Now()
			tr.add(0, id, "netsim.round", prev, now)
			rt.rounds = append(rt.rounds, now)
			prev = now
			if onRound != nil {
				onRound(snap.Round)
				prev = time.Now()
			}
			return nil
		})
	rt.end = time.Now()
	tr.add(0, id, "netsim.drain", prev, rt.end)
	tr.add(id, 0, "netsim.run", rt.start, rt.end)
	return res, rt, err
}

func (m *millionSession) close() {}
