package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/mac"
	"repro/internal/netsim"
	"repro/internal/phy"
	"repro/internal/reader"
	"repro/internal/sigproc"
	"repro/internal/simrand"
)

// The layer probes time repeated calls into each layer's public
// functions at the workloads' own parameters. They run in every traced
// run, after the traced operations, so each traced run reports every
// per-layer metric whichever workload it traced.

const (
	// fig1's receive noise and link geometry (feedbackChannelBER).
	fig1NoiseW = 1e-9
	fig1TxW    = 0.1
	fig1Rho    = 0.3
	fig1DistM  = 2
)

// fig1Spbs are fig1's three feedback bit periods, in samples per bit.
var fig1Spbs = []int{10, 100, 1000}

// probeCount tallies the checks the probes make on outputs.
type probeCount struct{ attempted, failed int64 }

func (p *probeCount) check(ok bool) {
	p.attempted++
	if !ok {
		p.failed++
	}
}

func layerProbes(seed uint64, sc scale, m metricSet) (probeCount, error) {
	var pc probeCount
	// The MAC probe runs at the link qualities of the netsim probe's
	// million run, so it comes after it.
	var link millionLink
	steps := []struct {
		name string
		run  func() error
	}{
		{"bench", func() error { return benchProbe(seed, sc, m, &pc) }},
		{"link", func() error { return linkProbes(seed, sc, m) }},
		{"netsim", func() (err error) { link, err = netsimProbe(seed, sc, m, &pc); return err }},
		{"mac", func() error { return macProbe(seed, sc, link, m) }},
		{"netsvc", func() error { return serviceProbe(seed, sc, m, &pc) }},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			return pc, fmt.Errorf("%s probe: %w", s.name, err)
		}
	}
	return pc, nil
}

// benchProbe times suite passes at 2 workers and at 1, alternating, with
// the experiment and render times and the allocations of each 2-worker
// pass. Every pass must match the first.
func benchProbe(seed uint64, sc scale, m metricSet, pc *probeCount) error {
	exps, err := experiments(sc.experiments)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	var ref []byte
	perExp := make([][]float64, len(exps))
	var pass1, pass2, render, allocs, allocMB []float64
	for i := 0; i < sc.passes; i++ {
		for _, w := range []int{workers, 1} {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			buf.Reset()
			t0 := time.Now()
			pt := renderPass(&buf, exps, bench.RunConfig{Seed: seed, Quick: true, Workers: w}, nil)
			d := time.Since(t0)
			runtime.ReadMemStats(&after)
			if ref == nil {
				ref = bytes.Clone(buf.Bytes())
			}
			pc.check(bytes.Equal(buf.Bytes(), ref))
			if w == 1 {
				pass1 = append(pass1, ms(d))
				continue
			}
			pass2 = append(pass2, ms(d))
			for k, e := range pt.exp {
				perExp[k] = append(perExp[k], ms(e))
			}
			render = append(render, ms(pt.render))
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
			allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		}
	}
	for k, e := range exps {
		m.set("bench."+e.ID+"_ms", median(perExp[k]))
	}
	// Experiments outside a shrunken pass still get a value, so the
	// metric set stays complete.
	for _, e := range bench.List() {
		if _, ok := m["bench."+e.ID+"_ms"]; !ok {
			m.set("bench."+e.ID+"_ms", 0)
		}
	}
	m.set("bench.speedup_w2", median(pass1)/median(pass2))
	m.set("bench.allocs_per_pass", median(allocs))
	m.set("bench.alloc_mb_per_pass", median(allocMB))
	m.set("trace.render_ms", median(render))
	return nil
}

// timeCalls calls f in doubling batches until at least d has passed and
// returns the mean nanoseconds per call.
func timeCalls(d time.Duration, f func()) float64 {
	var total time.Duration
	calls := 0
	for n := 1; total < d; n = min(2*n, 1<<16) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		total += time.Since(t0)
		calls += n
	}
	return float64(total.Nanoseconds()) / float64(calls)
}

// allocsPer returns the heap allocations and bytes per call of f over n
// calls, after one warm-up call.
func allocsPer(n int, f func()) (allocs, bytes float64) {
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// linkProbes times the link stages fig1 and fig7 spend their time in:
// noise synthesis, envelope and feedback decode over one fig1 bit at
// each bit period, and a whole fig7 frame exchange.
func linkProbes(seed uint64, sc scale, m metricSet) error {
	src := simrand.New(seed)
	// The decoded bits and the frame payload are drawn before any timed
	// loop, so they do not depend on how many calls a timing window made.
	rxLong, txLong := fig1Bit(src, 1000)
	rxShort, txShort := fig1Bit(src, 10)
	payload := make([]byte, 192)
	for i := range payload {
		payload[i] = byte(src.IntN(256))
	}

	blocks := make([]sigproc.IQ, len(fig1Spbs))
	samples := 0
	for i, spb := range fig1Spbs {
		blocks[i] = make(sigproc.IQ, spb)
		samples += spb
	}
	fill := func() {
		for _, b := range blocks {
			src.FillNoise(b, fig1NoiseW)
		}
	}
	m.set("simrand.fill_noise_ns_per_sample", timeCalls(sc.probeTime, fill)/float64(samples))
	a, b := allocsPer(100, fill)
	m.set("simrand.fill_noise_allocs_per_op", a/float64(len(blocks)))
	m.set("simrand.fill_noise_bytes_per_op", b/float64(len(blocks)))

	env := make([]float64, 0, fig1Spbs[len(fig1Spbs)-1])
	envelope := func() {
		for _, b := range blocks {
			env = b.Envelope(env[:0])
		}
	}
	m.set("sigproc.envelope_ns_per_sample", timeCalls(sc.probeTime, envelope)/float64(samples))
	a, b = allocsPer(100, envelope)
	m.set("sigproc.envelope_allocs_per_op", a/float64(len(blocks)))
	m.set("sigproc.envelope_bytes_per_op", b/float64(len(blocks)))

	rd, err := reader.New(reader.Config{})
	if err != nil {
		return err
	}
	decodeLong := func() { rd.DecodeFeedbackBit(rxLong, txLong) }
	m.set("reader.decode_ns_per_sample", timeCalls(sc.probeTime, decodeLong)/1000)
	m.set("reader.decode_ns_per_call", timeCalls(sc.probeTime, func() { rd.DecodeFeedbackBit(rxShort, txShort) }))
	a, b = allocsPer(100, decodeLong)
	m.set("reader.decode_allocs_per_op", a)
	m.set("reader.decode_bytes_per_op", b)

	// fig7's link at 1e-9 W tag and reader noise.
	l, err := core.NewLink(core.LinkConfig{
		Modem:     phy.OOK{SamplesPerChip: 4, Depth: 0.75},
		DistanceM: 3, TagNoiseW: 1e-9, ReaderNoiseW: 1e-9, ChunkSize: 32, Seed: seed,
	})
	if err != nil {
		return err
	}
	var res core.TransferResult
	var frameErr error
	frame := func() {
		if err := l.TransferFrameInto(payload, core.TransferOptions{PadChips: -1}, &res); err != nil {
			frameErr = err
		}
	}
	m.set("core.transfer_frame_us", timeCalls(sc.probeTime, frame)/1e3)
	a, b = allocsPer(20, frame)
	m.set("core.transfer_frame_allocs", a)
	m.set("core.transfer_frame_bytes", b)
	return frameErr
}

// fig1Bit renders one noisy Manchester feedback bit as fig1's reader
// receives it, with the carrier it transmitted over the same samples.
func fig1Bit(src *simrand.Source, spb int) (rx, tx sigproc.IQ) {
	g := channel.NewLogDistance(915e6, 2.5).Gain(fig1DistM)
	txAmp := math.Sqrt(fig1TxW)
	leak := complex(math.Sqrt(0.01)*txAmp, 0)
	refl := leak + complex(math.Sqrt(g)*math.Sqrt(fig1Rho)*math.Sqrt(g)*txAmp, 0)
	tx = sigproc.NewIQ(spb)
	tx.Fill(complex(txAmp, 0))
	states := feedback.Config{SamplesPerBit: spb, Code: feedback.CodeManchester}.AppendStates(nil, []byte{1})
	rx = sigproc.NewIQ(spb)
	for j := range rx {
		rx[j] = leak
		if states[j] == feedback.StateReflect {
			rx[j] = refl
		}
	}
	src.FillNoise(rx, fig1NoiseW)
	return rx, tx
}

// millionLink is the link quality the MAC saw in a million run: the share
// of transmitted chunks lost, over all tags and rates, and the median
// tag's feedback bit-error rate.
type millionLink struct {
	chunkLoss, feedbackBER float64
}

// macProbe times one full-duplex frame exchange with the million
// preset's MAC dimensions at the link quality its run measured. Chunks
// are lost independently at the run's realised loss rate: the fading
// channel and the rate adapter live inside netsim, so the probe times the
// MAC's own exchange logic, not the channel model.
func macProbe(seed uint64, sc scale, link millionLink, m metricSet) error {
	s, err := millionScenario(sc)
	if err != nil {
		return err
	}
	s.ApplyDefaults()
	fd := &mac.FullDuplex{P: mac.Params{
		PayloadBytes: s.PayloadBytes, ChunkBytes: s.ChunkBytes, AbortThreshold: s.AbortThreshold,
		BackoffChunks: s.BackoffChunks, MaxAttempts: s.MaxAttempts, FeedbackBER: link.feedbackBER,
	}}
	fd.Prime()
	loss := mac.NewIIDLossUsing(link.chunkLoss, simrand.New(seed))
	frame := func() {
		fd.Seed++
		fd.Run(1, loss)
	}
	// The million run before this leaves a large heap behind; collect it
	// so its clean-up does not run inside the timing window.
	runtime.GC()
	m.set("mac.fd_frame_us", timeCalls(sc.probeTime, frame)/1e3)
	a, b := allocsPer(1000, frame)
	m.set("mac.fd_frame_allocs", a)
	m.set("mac.fd_frame_bytes", b)
	return nil
}

// netsimProbe times the million preset's placement, a batch run at 1 and
// at 2 workers, and a streamed run whose sink timestamps each round. The
// three runs must agree. It returns the link quality of the run for the
// MAC probe.
func netsimProbe(seed uint64, sc scale, m metricSet, pc *probeCount) (millionLink, error) {
	var link millionLink
	s, err := millionScenario(sc)
	if err != nil {
		return link, err
	}
	d := s
	d.ApplyDefaults()
	t0 := time.Now()
	anchors := netsim.PlaceReaders(d.Readers)
	if _, err := netsim.PlaceTags(d.Topology, d.Tags, d.RadiusM, d.Clusters, d.ClusterSpreadM, anchors, simrand.New(seed).Split()); err != nil {
		return link, err
	}
	m.set("netsim.place_ms", ms(time.Since(t0)))

	runtime.GC()
	t0 = time.Now()
	r1, err := netsim.RunParallel(s, seed, 1)
	if err != nil {
		return link, err
	}
	w1 := time.Since(t0)
	want := resultDigest(r1)
	r1 = nil

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 = time.Now()
	r2, err := netsim.RunParallel(s, seed, workers)
	if err != nil {
		return link, err
	}
	w2 := time.Since(t0)
	runtime.ReadMemStats(&after)
	pc.check(resultDigest(r2) == want)
	var attempts, sent, lost int64
	fbBER := make([]float64, len(r2.Tags))
	for i := range r2.Tags {
		t := &r2.Tags[i]
		attempts += t.MACAttempts
		for k := range t.RateChunks {
			sent += t.RateChunks[k]
			lost += t.RateLostChunks[k]
		}
		fbBER[i] = t.FeedbackBER
	}
	if sent == 0 {
		return link, errors.New("million run sent no rate-adapted chunk")
	}
	link = millionLink{chunkLoss: float64(lost) / float64(sent), feedbackBER: median(fbBER)}
	m.set("netsim.rounds", float64(r2.Rounds))
	m.set("netsim.frames_delivered", float64(r2.FramesDelivered))
	m.set("netsim.mac_attempts", float64(attempts))
	m.set("netsim.singleton_slots", float64(r2.SingletonSlots))
	m.set("netsim.collision_slots", float64(r2.CollisionSlots))
	m.set("netsim.delivered_per_attempt", float64(r2.FramesDelivered)/float64(attempts))
	m.set("netsim.collision_frac", r2.CollisionFraction())
	m.set("netsim.speedup_w2", w1.Seconds()/w2.Seconds())
	m.set("netsim.gc_count", float64(after.NumGC-before.NumGC))
	m.set("netsim.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	r2 = nil

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	heapAfterRound1 := uint64(0)
	ms1 := &millionSession{sc: s, seed: seed}
	rs, rt, err := ms1.tracedRun(nil, func(round int) {
		if round == 1 {
			var st runtime.MemStats
			runtime.ReadMemStats(&st)
			heapAfterRound1 = st.HeapAlloc
		}
	})
	if err != nil {
		return link, err
	}
	pc.check(resultDigest(rs) == want)
	m.set("netsim.bytes_per_tag", float64(heapAfterRound1-base.HeapAlloc)/float64(d.Tags))

	n := len(rt.rounds)
	if n == 0 {
		return link, errors.New("streamed run emitted no round")
	}
	at := func(k int) time.Time { return rt.rounds[min(k, n-1)] }
	var steady []float64
	for k := 1; k <= 3 && k < n; k++ {
		steady = append(steady, ms(rt.rounds[k].Sub(rt.rounds[k-1])))
	}
	if len(steady) == 0 {
		steady = []float64{ms(rt.rounds[0].Sub(rt.start))}
	}
	m.set("netsim.first_round_ms", ms(rt.rounds[0].Sub(rt.start)))
	m.set("netsim.steady_round_ms", median(steady))
	m.set("netsim.epoch_round_ms", ms(at(4).Sub(at(3))))
	m.set("netsim.drain_ms", ms(rt.end.Sub(rt.rounds[n-1])))
	m.set("netsim.observe_ms", ms(rt.end.Sub(rt.start))-ms(w2))
	return link, nil
}

// errReplayed stops a resumed stream at its first emitted round.
var errReplayed = errors.New("replay reached the resume round")

// serviceProbe measures the service-mix requests layer by layer: the
// engine alone, the engine plus encoder (ReferenceStream), the resume
// replay, and then two closed loops over HTTP, untraced for allocations
// and traced for the server-side handler times.
func serviceProbe(seed uint64, sc scale, m metricSet, pc *probeCount) error {
	sess, err := prepareService(seed, sc)
	if err != nil {
		return err
	}
	s := sess.(*serviceSession)
	defer s.close()

	var refMs, engMs, replayMs []float64
	var buf bytes.Buffer
	ctx := context.Background()
	noop := func(*netsim.RoundSnapshot) error { return nil }
	for rep := 0; rep < 5; rep++ {
		for _, j := range s.fresh {
			buf.Reset()
			t0 := time.Now()
			if _, err := s.srv.ReferenceStream(j.body, j.seed, &buf); err != nil {
				return err
			}
			refMs = append(refMs, ms(time.Since(t0)))
			pc.check(bytes.Equal(buf.Bytes(), j.want))

			d := j.scenario
			d.ApplyDefaults()
			t0 = time.Now()
			if _, err := netsim.RunStreamOptions(ctx, d, j.seed, netsim.StreamOptions{Workers: 1}, noop); err != nil {
				return err
			}
			engMs = append(engMs, ms(time.Since(t0)))

			t0 = time.Now()
			_, err := netsim.RunStreamOptions(ctx, d, j.seed, netsim.StreamOptions{Workers: 1, StartRound: j.resumeAt},
				func(*netsim.RoundSnapshot) error { return errReplayed })
			if !errors.Is(err, errReplayed) {
				return fmt.Errorf("%s: resume replay: %v", j.key, err)
			}
			replayMs = append(replayMs, ms(time.Since(t0)))
		}
	}
	m.set("netsvc.reference_stream_ms", mean(refMs))
	m.set("netsim.stream_engine_ms", mean(engMs))
	m.set("netsvc.encode_ms", mean(refMs)-mean(engMs))
	m.set("netsim.replay_ms", mean(replayMs))

	var streamBytes, streamLines []float64
	for _, j := range s.jobs {
		streamBytes = append(streamBytes, float64(len(j.want)))
		streamLines = append(streamLines, float64(bytes.Count(j.want, []byte("\n"))))
	}
	m.set("netsvc.bytes_per_stream", mean(streamBytes))
	m.set("netsvc.lines_per_stream", mean(streamLines))

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain := s.run(time.Now().Add(sc.svcTime), nil)
	runtime.ReadMemStats(&after)
	m.set("netsvc.allocs_per_request", float64(after.Mallocs-before.Mallocs)/float64(plain.attempted))
	m.set("netsvc.alloc_kb_per_request", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(plain.attempted))

	traced := s.run(time.Now().Add(sc.svcTime), newTracer())
	handler, firstWrite := s.serverSamples()
	m.set("netsvc.handler_ms_p50", median(handler))
	m.set("netsvc.server_first_write_ms_p50", median(firstWrite))
	m.set("netsvc.http_overhead_ms", median(traced.opMs)-median(handler))
	m.set("netsvc.rejected_429", float64(s.rejected.Load()))
	for _, l := range []*opLog{plain, traced} {
		pc.attempted += l.attempted
		pc.failed += l.failed
	}
	return nil
}
