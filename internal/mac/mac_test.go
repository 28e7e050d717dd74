package mac

import (
	"math"
	"testing"

	"repro/internal/simrand"
)

func TestIIDLossRate(t *testing.T) {
	l := NewIIDLoss(0.2, simrand.New(1))
	lost := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if l.Chunk() {
			lost++
		}
	}
	got := float64(lost) / n
	if math.Abs(got-0.2) > 0.01 {
		t.Fatalf("loss rate %g, want 0.2", got)
	}
	l.Idle(100) // must not panic
}

func TestGilbertLossBursty(t *testing.T) {
	l := NewGilbertLoss(simrand.New(2), 0.01, 0.1, 0.001, 0.8)
	lost, pairs, prev := 0, 0, false
	const n = 300000
	for i := 0; i < n; i++ {
		v := l.Chunk()
		if v {
			lost++
			if prev {
				pairs++
			}
		}
		prev = v
	}
	marginal := float64(lost) / n
	if math.Abs(marginal-l.SteadyStateLoss()) > 0.02 {
		t.Fatalf("marginal %g vs steady %g", marginal, l.SteadyStateLoss())
	}
	if float64(pairs)/float64(lost) < 2*marginal {
		t.Fatal("losses not bursty")
	}
}

func TestBurstLossDutyCycle(t *testing.T) {
	l := NewBurstLoss(simrand.New(3), 0.02, 10, 1, 0)
	busy := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if l.Chunk() {
			busy++
		}
	}
	got := float64(busy) / n
	want := l.DutyCycle()
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("busy fraction %g, want ~%g", got, want)
	}
}

func TestBurstLossZeroRate(t *testing.T) {
	l := NewBurstLoss(simrand.New(4), 0, 10, 1, 0)
	for i := 0; i < 1000; i++ {
		if l.Chunk() {
			t.Fatal("no bursts and no base loss must never lose")
		}
	}
	if l.DutyCycle() != 0 {
		t.Fatal("zero start prob duty cycle must be 0")
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}
	if p.NumChunks() != (1500+63)/64 {
		t.Fatalf("default chunks = %d", p.NumChunks())
	}
}

func TestAllProtocolsDeliverOnPerfectChannel(t *testing.T) {
	params := Params{PayloadBytes: 1024, ChunkBytes: 64}
	protos := []Protocol{
		&StopAndWait{P: params},
		&BlockACK{P: params},
		&FullDuplex{P: params, Seed: 1},
	}
	for _, pr := range protos {
		loss := NewIIDLoss(0, simrand.New(5))
		res := pr.Run(100, loss)
		if res.FramesDelivered != 100 {
			t.Fatalf("%s: delivered %d/100 on perfect channel", pr.Name(), res.FramesDelivered)
		}
		if res.GoodputBytes != 100*1024 {
			t.Fatalf("%s: goodput %d", pr.Name(), res.GoodputBytes)
		}
		if res.ChunkRetx != 0 {
			t.Fatalf("%s: retransmissions on perfect channel", pr.Name())
		}
	}
}

func TestFullDuplexNoAckOverhead(t *testing.T) {
	params := Params{PayloadBytes: 1024, ChunkBytes: 64}
	fd := (&FullDuplex{P: params, Seed: 2}).Run(50, NewIIDLoss(0, simrand.New(6)))
	sw := (&StopAndWait{P: params}).Run(50, NewIIDLoss(0, simrand.New(7)))
	if fd.Efficiency() <= sw.Efficiency() {
		// On a lossless channel FD saves exactly the ACK overhead.
		t.Fatalf("FD efficiency %g must beat SW %g (ACK saving)", fd.Efficiency(), sw.Efficiency())
	}
}

func TestFullDuplexBeatsBaselinesUnderLoss(t *testing.T) {
	params := Params{PayloadBytes: 1500, ChunkBytes: 64}
	for _, p := range []float64{0.05, 0.2, 0.4} {
		fd := (&FullDuplex{P: params, Seed: 3}).Run(200, NewIIDLoss(p, simrand.New(8)))
		sw := (&StopAndWait{P: params}).Run(200, NewIIDLoss(p, simrand.New(9)))
		if fd.Efficiency() <= sw.Efficiency() {
			t.Fatalf("p=%g: FD %g <= SW %g", p, fd.Efficiency(), sw.Efficiency())
		}
	}
}

func TestStopAndWaitCollapsesAtHighLoss(t *testing.T) {
	// With 23 chunks at 20% chunk loss, a whole-frame success is ~0.6%:
	// stop-and-wait mostly fails within MaxAttempts while selective
	// protocols keep working.
	params := Params{PayloadBytes: 1500, ChunkBytes: 64, MaxAttempts: 8}
	loss := 0.2
	sw := (&StopAndWait{P: params}).Run(100, NewIIDLoss(loss, simrand.New(10)))
	fd := (&FullDuplex{P: params, Seed: 4}).Run(100, NewIIDLoss(loss, simrand.New(11)))
	if sw.DeliveryRate() > 0.5 {
		t.Fatalf("stop-and-wait delivered %g at 20%% chunk loss?", sw.DeliveryRate())
	}
	if fd.DeliveryRate() < 0.95 {
		t.Fatalf("full-duplex delivered only %g", fd.DeliveryRate())
	}
}

func TestBlockACKBetweenTheTwo(t *testing.T) {
	params := Params{PayloadBytes: 1500, ChunkBytes: 64}
	p := 0.15
	sw := (&StopAndWait{P: params}).Run(300, NewIIDLoss(p, simrand.New(12)))
	ba := (&BlockACK{P: params}).Run(300, NewIIDLoss(p, simrand.New(13)))
	fd := (&FullDuplex{P: params, Seed: 5}).Run(300, NewIIDLoss(p, simrand.New(14)))
	if !(sw.Efficiency() < ba.Efficiency() && ba.Efficiency() < fd.Efficiency()) {
		t.Fatalf("ordering violated: sw=%.3f ba=%.3f fd=%.3f",
			sw.Efficiency(), ba.Efficiency(), fd.Efficiency())
	}
}

func TestFeedbackDelayOrdersOfMagnitude(t *testing.T) {
	params := Params{PayloadBytes: 1500, ChunkBytes: 64}
	sw := (&StopAndWait{P: params}).Run(100, NewIIDLoss(0.05, simrand.New(15)))
	fd := (&FullDuplex{P: params, Seed: 6}).Run(100, NewIIDLoss(0.05, simrand.New(16)))
	if fd.MeanFeedbackDelayChunks() >= sw.MeanFeedbackDelayChunks()/5 {
		t.Fatalf("FD feedback delay %g vs SW %g: expected >5x gap",
			fd.MeanFeedbackDelayChunks(), sw.MeanFeedbackDelayChunks())
	}
}

func TestEarlyTerminationReducesWasteUnderBursts(t *testing.T) {
	params := Params{PayloadBytes: 1500, ChunkBytes: 64, AbortThreshold: 2, BackoffChunks: 16}
	noAbort := params
	noAbort.AbortThreshold = -1 // disabled marker
	// AbortThreshold 0 means default (2); use a copy with explicit large
	// threshold to disable.
	noAbort.AbortThreshold = 1 << 30

	mkLoss := func(seed uint64) Loss {
		return NewBurstLoss(simrand.New(seed), 0.03, 20, 1, 0.01)
	}
	withAbort := (&FullDuplex{P: params, Seed: 7}).Run(300, mkLoss(17))
	without := (&FullDuplex{P: noAbort, Seed: 7}).Run(300, mkLoss(17))
	if withAbort.Aborts == 0 {
		t.Fatal("bursty channel should trigger aborts")
	}
	if withAbort.WastedFraction() >= without.WastedFraction() {
		t.Fatalf("early termination must cut waste: %.3f vs %.3f",
			withAbort.WastedFraction(), without.WastedFraction())
	}
}

func TestFeedbackBERCausesRetx(t *testing.T) {
	params := Params{PayloadBytes: 1024, ChunkBytes: 64, FeedbackBER: 0.05}
	fd := (&FullDuplex{P: params, Seed: 8}).Run(300, NewIIDLoss(0, simrand.New(18)))
	if fd.FalseNACK == 0 {
		t.Fatal("5% feedback BER on a clean channel must cause false NACKs")
	}
	if fd.ChunkRetx == 0 {
		t.Fatal("false NACKs must cause needless retransmissions")
	}
	if fd.FramesDelivered != 300 {
		t.Fatalf("frames still deliver despite feedback errors: %d/300", fd.FramesDelivered)
	}
}

func TestFalseACKRecovered(t *testing.T) {
	// With loss AND feedback errors, false ACKs happen; the end-of-frame
	// resync must still deliver every frame eventually.
	params := Params{PayloadBytes: 1024, ChunkBytes: 64, FeedbackBER: 0.05, MaxAttempts: 64}
	fd := (&FullDuplex{P: params, Seed: 9}).Run(200, NewIIDLoss(0.2, simrand.New(19)))
	if fd.FalseACK == 0 {
		t.Fatal("expected false ACKs at 20% loss with 5% feedback BER")
	}
	if fd.DeliveryRate() < 0.99 {
		t.Fatalf("delivery rate %g despite resync", fd.DeliveryRate())
	}
}

func TestResultAccessorsZeroSafe(t *testing.T) {
	var r Result
	if r.Efficiency() != 0 || r.Throughput() != 0 || r.WastedFraction() != 0 ||
		r.MeanLatencyBytes() != 0 || r.MeanFeedbackDelayChunks() != 0 || r.DeliveryRate() != 0 {
		t.Fatal("zero-value result accessors must be 0")
	}
	if r.String() == "" {
		t.Fatal("String must render")
	}
}

func TestLatencyFDBeatsSWUnderLoss(t *testing.T) {
	params := Params{PayloadBytes: 1500, ChunkBytes: 64}
	p := 0.1
	sw := (&StopAndWait{P: params}).Run(200, NewIIDLoss(p, simrand.New(20)))
	fd := (&FullDuplex{P: params, Seed: 10}).Run(200, NewIIDLoss(p, simrand.New(21)))
	if sw.FramesDelivered == 0 {
		t.Skip("stop-and-wait delivered nothing; latency undefined")
	}
	if fd.MeanLatencyBytes() >= sw.MeanLatencyBytes() {
		t.Fatalf("FD latency %g must beat SW %g at 10%% loss",
			fd.MeanLatencyBytes(), sw.MeanLatencyBytes())
	}
}

func TestDeterministicRuns(t *testing.T) {
	params := Params{PayloadBytes: 1500, ChunkBytes: 64, FeedbackBER: 0.01}
	run := func() Result {
		return (&FullDuplex{P: params, Seed: 42}).Run(100, NewIIDLoss(0.1, simrand.New(42)))
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seeds diverged:\n%+v\n%+v", a, b)
	}
}

func TestParamsAirtimeHelpers(t *testing.T) {
	// Defaults: 1500 B payload, 64 B chunks (+1 CRC), 12 B header.
	var p Params
	if got := p.ChunkAirBytes(); got != 65 {
		t.Fatalf("ChunkAirBytes = %d, want 65", got)
	}
	if got := p.HeaderAirBytes(); got != 12 {
		t.Fatalf("HeaderAirBytes = %d, want 12", got)
	}
	if got, want := p.FrameAirBytes(), 12+24*65; got != want {
		t.Fatalf("FrameAirBytes = %d, want %d", got, want)
	}
	// Explicit dimensions pass through.
	q := Params{PayloadBytes: 100, ChunkBytes: 50, HeaderBytes: 8}
	if got, want := q.FrameAirBytes(), 8+2*51; got != want {
		t.Fatalf("FrameAirBytes = %d, want %d", got, want)
	}
	// The helpers must not mutate the receiver (value semantics).
	if q.PayloadBytes != 100 || q.MaxAttempts != 0 {
		t.Fatalf("helper mutated params: %+v", q)
	}
}

// TestExchangesMatchRun drives every protocol's Exchange by hand, three
// frames in flight at once, each exchange answered chunk by chunk from
// its own loss process in round-robin, and checks each one's Result
// against Run over the same loss process. This is how an engine
// interleaves many tags' frames, so no protocol may keep state outside
// its Exchange or depend on when its requests are answered. The loss
// models are fig4's iid, fig5's interference bursts and the Gilbert
// chain, with and without early termination and feedback errors.
func TestExchangesMatchRun(t *testing.T) {
	const frames, inFlight = 40, 3
	losses := map[string]func(seed uint64) Loss{
		"iid": func(seed uint64) Loss { return NewIIDLoss(0.1, simrand.New(seed)) },
		"burst": func(seed uint64) Loss {
			return NewBurstLoss(simrand.New(seed), 0.02, 20, 1, 0.005)
		},
		"gilbert": func(seed uint64) Loss {
			return NewGilbertLoss(simrand.New(seed), 0.01, 0.1, 0.001, 0.8)
		},
	}
	paramSets := []Params{
		{PayloadBytes: 1500, ChunkBytes: 64},
		{PayloadBytes: 1500, ChunkBytes: 64, AbortThreshold: 2, BackoffChunks: 24},
		{PayloadBytes: 640, ChunkBytes: 32, AbortThreshold: 1, FeedbackBER: 0.05, MaxAttempts: 6},
	}
	type machine interface {
		Protocol
		Exchange
	}
	protocols := map[string]func(p Params, seed uint64) machine{
		"stop-and-wait": func(p Params, _ uint64) machine { return &StopAndWait{P: p} },
		"block-ack":     func(p Params, _ uint64) machine { return &BlockACK{P: p} },
		"full-duplex":   func(p Params, seed uint64) machine { return &FullDuplex{P: p, Seed: seed} },
	}
	for lname, mkLoss := range losses {
		for pname, mk := range protocols {
			for pi, p := range paramSets {
				var want, got [inFlight]Result
				var xs [inFlight]machine
				var ls [inFlight]Loss
				var left [inFlight]int
				var need [inFlight]Need
				for k := range inFlight {
					seed := uint64(100*pi + k + 1)
					want[k] = mk(p, seed).Run(frames, mkLoss(seed))
					xs[k], ls[k], left[k] = mk(p, seed), mkLoss(seed), frames
					got[k].Protocol = xs[k].Name()
					if fd, ok := xs[k].(*FullDuplex); ok {
						fd.Reseed(seed)
					}
					need[k] = Need{Done: true}
				}
				for busy := inFlight; busy > 0; {
					busy = 0
					for k, x := range xs {
						if need[k].Done {
							if left[k] == 0 {
								continue
							}
							left[k]--
							need[k] = x.Begin(&got[k])
						} else {
							need[k] = x.Chunk(&got[k], ls[k].Chunk())
						}
						if need[k].Idle > 0 {
							ls[k].Idle(need[k].Idle)
						}
						busy++
					}
				}
				for k := range inFlight {
					if got[k] != want[k] {
						t.Errorf("%s/%s/params %d/frame set %d: by hand %+v, Run %+v",
							lname, pname, pi, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// BenchmarkFullDuplexRun times one default-params full-duplex frame on
// an iid loss process through Run: the exchange logic alone, the cost
// perfbench's mac.fd_frame_us probe measures at the million preset's
// dimensions.
func BenchmarkFullDuplexRun(b *testing.B) {
	fd := &FullDuplex{}
	fd.Prime()
	loss := NewIIDLossUsing(0.1, simrand.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		fd.Seed++
		fd.Run(1, loss)
	}
}
