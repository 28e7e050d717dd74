package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/channel"
	"repro/internal/phy"
	"repro/internal/reader"
	"repro/internal/simrand"
)

func testPayload(n int, seed uint64) []byte {
	src := simrand.New(seed)
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(src.IntN(256))
	}
	return p
}

func cleanLinkConfig(seed uint64) LinkConfig {
	return LinkConfig{
		Modem:      phy.OOK{SamplesPerChip: 4, Depth: 0.75},
		DistanceM:  2,
		ChunkSize:  32,
		TxPowerW:   0.1,
		Seed:       seed,
		SampleRate: 1e6,
	}
}

func mustLink(t *testing.T, cfg LinkConfig) *Link {
	t.Helper()
	l, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestCleanTransferDeliversEverything(t *testing.T) {
	l := mustLink(t, cleanLinkConfig(1))
	payload := testPayload(256, 2)
	res, err := l.TransferFrame(payload, TransferOptions{PadChips: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Acquired {
		t.Fatal("tag failed to acquire on a clean channel")
	}
	if !res.DeliveredOK {
		t.Fatalf("delivery failed: chunks %+v", res.Chunks)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatal("payload corrupted on a clean channel")
	}
	if res.ForwardBitErrors != 0 {
		t.Fatalf("forward bit errors on clean channel: %d", res.ForwardBitErrors)
	}
	if res.FeedbackErrors != 0 {
		t.Fatalf("feedback errors on clean channel: %d", res.FeedbackErrors)
	}
	if !res.HeaderAckOK {
		t.Fatal("header ACK not decoded")
	}
	if res.Aborted {
		t.Fatal("clean transfer must not abort")
	}
	// Every chunk ACKed at both ends.
	for i, c := range res.Chunks {
		if !c.TagOK || !c.ReaderSawBit || c.ReaderBit != 1 {
			t.Fatalf("chunk %d: %+v", i, c)
		}
	}
	if res.SamplesUsed != res.SamplesFull {
		t.Fatalf("clean transfer airtime %d != full %d", res.SamplesUsed, res.SamplesFull)
	}
	if res.GoodputBytes() != len(payload) {
		t.Fatalf("goodput %d, want %d", res.GoodputBytes(), len(payload))
	}
}

func TestTransferHarvestsEnergy(t *testing.T) {
	cfg := cleanLinkConfig(3)
	cfg.Capacitor.CapacitanceF = 100e-6
	cfg.Capacitor.MaxVoltageV = 3.3
	cfg.Capacitor.MinVoltageV = 1.8
	l := mustLink(t, cfg)
	// Drain the cap below full so harvesting is visible.
	l.Tag().StoredEnergy()
	res, err := l.TransferFrame(testPayload(128, 4), TransferOptions{PadChips: 8})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// At full charge the delta can be 0 (clamped); validate no outage.
	if l.Tag().HarvestedOutageFraction() != 0 {
		t.Fatal("tag browned out with zero circuit consumption")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() *TransferResult {
		cfg := cleanLinkConfig(77)
		cfg.Fading = channel.FadingRayleigh
		l := mustLink(t, cfg)
		res, err := l.TransferFrame(testPayload(200, 5), TransferOptions{PadChips: -1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Acquired != b.Acquired || a.FeedbackErrors != b.FeedbackErrors ||
		a.ForwardBitErrors != b.ForwardBitErrors || a.SamplesUsed != b.SamplesUsed {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestLongDistanceDegrades(t *testing.T) {
	// At an absurd distance the tag should fail to even acquire.
	cfg := cleanLinkConfig(9)
	cfg.DistanceM = 5000
	cfg.TagNoiseW = 1e-10
	l := mustLink(t, cfg)
	res, err := l.TransferFrame(testPayload(64, 6), TransferOptions{PadChips: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Acquired && res.DeliveredOK && res.ForwardBitErrors == 0 {
		t.Fatal("a 5 km backscatter link should not be error-free")
	}
}

func TestInterfererCorruptsAndNACKs(t *testing.T) {
	cfg := cleanLinkConfig(11)
	cfg.ChunkSize = 16
	cfg.Interferer = &InterfererConfig{
		PowerW:            1.0,
		DistanceToTagM:    1.5,
		DistanceToReaderM: 3,
		DutyCycle:         0.5,
	}
	l := mustLink(t, cfg)
	sawNACK := false
	sawInterference := false
	for trial := 0; trial < 10 && !sawNACK; trial++ {
		res, err := l.TransferFrame(testPayload(160, uint64(trial)), TransferOptions{PadChips: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Acquired {
			continue
		}
		for _, c := range res.Chunks {
			if c.Interfered {
				sawInterference = true
				if !c.TagOK {
					sawNACK = true
				}
			}
		}
	}
	if !sawInterference {
		t.Fatal("interferer with 50% duty never hit a chunk in 10 frames")
	}
	if !sawNACK {
		t.Fatal("a 1 W interferer at 1.5 m never corrupted a chunk")
	}
}

func TestEarlyTerminationSavesAirtime(t *testing.T) {
	cfg := cleanLinkConfig(13)
	cfg.ChunkSize = 16
	cfg.Interferer = &InterfererConfig{
		PowerW:            1.0,
		DistanceToTagM:    1.0,
		DistanceToReaderM: 3,
		DutyCycle:         1.0, // every chunk hit: frame is doomed
	}
	l := mustLink(t, cfg)
	res, err := l.TransferFrame(testPayload(320, 14), TransferOptions{
		EarlyTerminate: true, PadChips: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Acquired {
		t.Skip("acquisition failed under continuous interference (acceptable)")
	}
	if !res.Aborted {
		t.Fatal("continuous interference must trigger early termination")
	}
	if res.SamplesUsed >= res.SamplesFull {
		t.Fatalf("abort saved nothing: %d vs %d", res.SamplesUsed, res.SamplesFull)
	}
	// Abort should happen within the first few chunks: the NACK for
	// chunk i arrives during chunk i+1.
	if res.AbortAfterChunk > 3 {
		t.Fatalf("abort too late: after chunk %d", res.AbortAfterChunk)
	}
}

func TestDisableFeedbackSilencesTag(t *testing.T) {
	l := mustLink(t, cleanLinkConfig(15))
	res, err := l.TransferFrame(testPayload(128, 16), TransferOptions{
		DisableFeedback: true, PadChips: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FeedbackBits != 0 {
		t.Fatalf("feedback disabled but reader scored %d bits", res.FeedbackBits)
	}
	for _, c := range res.Chunks {
		if c.ReaderSawBit {
			t.Fatal("reader must not see feedback when disabled")
		}
	}
	if !res.DeliveredOK {
		t.Fatal("forward link must still work without feedback")
	}
}

func TestFeedbackReliableOverTrials(t *testing.T) {
	cfg := cleanLinkConfig(17)
	l := mustLink(t, cfg)
	totalBits, totalErrs := 0, 0
	for trial := 0; trial < 5; trial++ {
		res, err := l.TransferFrame(testPayload(256, uint64(100+trial)), TransferOptions{PadChips: -1})
		if err != nil {
			t.Fatal(err)
		}
		totalBits += res.FeedbackBits
		totalErrs += res.FeedbackErrors
	}
	if totalBits == 0 {
		t.Fatal("no feedback bits scored")
	}
	if totalErrs != 0 {
		t.Fatalf("feedback errors on clean channel: %d/%d", totalErrs, totalBits)
	}
}

func TestSISubtractModeWorks(t *testing.T) {
	cfg := cleanLinkConfig(19)
	cfg.SI = reader.SISubtract
	l := mustLink(t, cfg)
	res, err := l.TransferFrame(testPayload(128, 20), TransferOptions{PadChips: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Acquired {
		t.Fatal("acquire failed")
	}
	if res.FeedbackErrors != 0 {
		t.Fatalf("SISubtract feedback errors on clean channel: %d/%d",
			res.FeedbackErrors, res.FeedbackBits)
	}
}

func TestRhoTradeoffFeedbackMargin(t *testing.T) {
	// Higher rho -> stronger reflection -> larger feedback margin.
	marginAt := func(rho float64) float64 {
		cfg := cleanLinkConfig(21)
		cfg.Rho = rho
		l := mustLink(t, cfg)
		res, err := l.TransferFrame(testPayload(96, 22), TransferOptions{PadChips: 8})
		if err != nil || !res.Acquired {
			t.Fatalf("transfer failed: %v", err)
		}
		var m float64
		for _, c := range res.Chunks {
			m += c.Margin
		}
		return m / float64(len(res.Chunks))
	}
	low := marginAt(0.1)
	high := marginAt(0.6)
	if high <= low {
		t.Fatalf("higher rho must raise feedback margin: rho=0.1 %g vs rho=0.6 %g", low, high)
	}
}

func TestSequenceNumberAdvances(t *testing.T) {
	l := mustLink(t, cleanLinkConfig(23))
	r1, err := l.TransferFrame(testPayload(32, 24), TransferOptions{PadChips: 8})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := l.TransferFrame(testPayload(32, 25), TransferOptions{PadChips: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Header.Seq != r1.Header.Seq+1 {
		t.Fatalf("seq %d -> %d", r1.Header.Seq, r2.Header.Seq)
	}
}

func TestMultipleFramesSameLink(t *testing.T) {
	// Buffer reuse across frames must not corrupt results.
	l := mustLink(t, cleanLinkConfig(27))
	for i := 0; i < 4; i++ {
		payload := testPayload(64+i*32, uint64(30+i))
		res, err := l.TransferFrame(payload, TransferOptions{PadChips: -1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.DeliveredOK || !bytes.Equal(res.Payload, payload) {
			t.Fatalf("frame %d failed on a clean channel", i)
		}
	}
}

func TestFadingChannelStillMostlyWorks(t *testing.T) {
	cfg := cleanLinkConfig(31)
	cfg.Fading = channel.FadingRician
	cfg.RicianK = 10 // strong LOS: shallow fades
	l := mustLink(t, cfg)
	delivered := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		res, err := l.TransferFrame(testPayload(96, uint64(40+i)), TransferOptions{PadChips: -1})
		if err != nil {
			t.Fatal(err)
		}
		if res.DeliveredOK {
			delivered++
		}
	}
	if delivered < trials/2 {
		t.Fatalf("K=10 Rician delivered only %d/%d", delivered, trials)
	}
}

func TestDetectorRCLink(t *testing.T) {
	cfg := cleanLinkConfig(33)
	cfg.DetectorCutoffHz = cfg.SampleRate / 8
	l := mustLink(t, cfg)
	res, err := l.TransferFrame(testPayload(96, 41), TransferOptions{PadChips: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Acquired || !res.DeliveredOK {
		t.Fatalf("RC detector link failed: acquired=%v delivered=%v fwdErrs=%d",
			res.Acquired, res.DeliveredOK, res.ForwardBitErrors)
	}
}

func TestBadConfigRejected(t *testing.T) {
	if _, err := NewLink(LinkConfig{Code: "nope"}); err == nil {
		t.Fatal("bad code must error")
	}
	if _, err := NewLink(LinkConfig{Rho: 5}); err == nil {
		t.Fatal("bad rho must error")
	}
}

func TestEmptyPayloadTransfer(t *testing.T) {
	l := mustLink(t, cleanLinkConfig(35))
	res, err := l.TransferFrame(nil, TransferOptions{PadChips: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Acquired {
		t.Fatal("empty frame must still acquire")
	}
	if len(res.Chunks) != 0 || !res.DeliveredOK {
		t.Fatalf("empty frame: %+v", res)
	}
}

// The allocation budget of the Monte-Carlo hot path: once warmed up, a
// frame exchange through a reused result must not allocate at all.
// This is the contract the experiment harness relies on; any new
// allocation in link/tag/reader/sigproc frame code trips this test.
// To find the allocating line when it fails, profile it and list the
// frame path:
//
//	go test -run TestTransferFrameIntoAllocFree -memprofile mem.prof -memprofilerate 1 ./internal/core
//	go tool pprof -sample_index=alloc_objects -list 'TransferFrameInto|remapFeedback' mem.prof
func TestTransferFrameIntoAllocFree(t *testing.T) {
	l, err := NewLink(LinkConfig{Modem: phy.OOK{SamplesPerChip: 4}, ChunkSize: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256)
	var res TransferResult
	// Warm up every scratch buffer (waveform, correlator, envelopes).
	for i := 0; i < 3; i++ {
		if err := l.TransferFrameInto(payload, TransferOptions{PadChips: 8}, &res); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := l.TransferFrameInto(payload, TransferOptions{PadChips: 8}, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state TransferFrameInto allocates %.1f objects/frame, budget is 0", allocs)
	}
}

// A tap observes the exchange without perturbing it: a tapped link
// returns exactly the results of an untapped twin, frame after frame.
// Its blocks tile the rendered frame from sample 0 (acquisition, each
// transmitted chunk, the flush slot unless the reader aborted), with
// Tx, Incident and States of one length; an unacquired frame renders
// only its acquisition block.
func TestTapIsReadOnlyAndCoversEverySample(t *testing.T) {
	var aborted, flushed, noSync int
	for _, dist := range []float64{2, 3000} {
		cfg := cleanLinkConfig(9)
		cfg.DistanceM = dist
		cfg.Interferer = &InterfererConfig{
			PowerW: 0.5, DistanceToTagM: 3, DistanceToReaderM: 4, DutyCycle: 0.5, BurstChunks: 2,
		}
		plain, tapped := mustLink(t, cfg), mustLink(t, cfg)
		for f := 0; f < 12; f++ {
			payload := testPayload(192, uint64(f))
			opts := TransferOptions{PadChips: -1, EarlyTerminate: true}
			want, err := plain.TransferFrame(payload, opts)
			if err != nil {
				t.Fatal(err)
			}
			var blocks []Block
			opts.Tap = func(b Block) { blocks = append(blocks, b) }
			got, err := tapped.TransferFrame(payload, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("dist %g frame %d: tapped result differs\n got %+v\nwant %+v", dist, f, got, want)
			}

			next := 0
			for i, b := range blocks {
				if b.Start != next || len(b.Tx) == 0 || len(b.Incident) != len(b.Tx) || len(b.States) != len(b.Tx) {
					t.Fatalf("dist %g frame %d block %d: start %d (want %d), tx %d, incident %d, states %d",
						dist, f, i, b.Start, next, len(b.Tx), len(b.Incident), len(b.States))
				}
				if (i == 0 && len(b.Rx) > len(b.Tx)) || (i > 0 && len(b.Rx) != len(b.Tx)) {
					t.Fatalf("dist %g frame %d block %d: rx %d samples over tx %d", dist, f, i, len(b.Rx), len(b.Tx))
				}
				next += len(b.Tx)
			}
			switch {
			case !got.Acquired:
				noSync++
				if len(blocks) != 1 || next > got.SamplesUsed {
					t.Fatalf("dist %g frame %d: unacquired frame tapped %d blocks ending at %d of %d",
						dist, f, len(blocks), next, got.SamplesUsed)
				}
				continue
			case got.Aborted:
				aborted++
			default:
				flushed++
			}
			wantBlocks := 1 + len(got.Chunks)
			if !got.Aborted {
				wantBlocks++
			}
			if len(blocks) != wantBlocks || next != got.SamplesUsed {
				t.Fatalf("dist %g frame %d: %d blocks ending at %d, want %d ending at SamplesUsed %d",
					dist, f, len(blocks), next, wantBlocks, got.SamplesUsed)
			}
		}
	}
	if aborted == 0 || flushed == 0 || noSync == 0 {
		t.Fatalf("sequence must cover every exit: aborted %d, flushed %d, unacquired %d", aborted, flushed, noSync)
	}
}

// Reset must rewind a used link to exactly the state a fresh NewLink
// would produce: same frames, same randomness, same energy accounting.
func TestLinkResetMatchesFresh(t *testing.T) {
	cfg := LinkConfig{
		Modem: phy.OOK{SamplesPerChip: 4}, ChunkSize: 16, Seed: 77,
		Fading: channel.FadingGaussMarkov, GaussMarkovRho: 0.9,
		DistanceM: 4, TagNoiseW: 1e-9,
		Interferer: &InterfererConfig{PowerW: 0.05, DistanceToTagM: 3, DistanceToReaderM: 3, DutyCycle: 0.2},
	}
	payload := []byte("reset-lifecycle-regression-payload--")
	runFrames := func(l *Link) []TransferResult {
		out := make([]TransferResult, 0, 4)
		for i := 0; i < 4; i++ {
			res, err := l.TransferFrame(payload, TransferOptions{PadChips: -1, EarlyTerminate: i%2 == 0})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, *res)
		}
		return out
	}

	fresh, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := runFrames(fresh)

	reused, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runFrames(reused) // dirty every piece of state
	reused.Reset(cfg.Seed)
	got := runFrames(reused)

	for i := range want {
		w, g := want[i], got[i]
		w.Chunks, g.Chunks = nil, nil // compared below; slices differ by identity
		w.Payload, g.Payload = nil, nil
		if fmt.Sprintf("%+v", w) != fmt.Sprintf("%+v", g) {
			t.Fatalf("frame %d differs after Reset:\nfresh: %+v\nreset: %+v", i, want[i], got[i])
		}
		if len(want[i].Chunks) != len(got[i].Chunks) {
			t.Fatalf("frame %d chunk count differs", i)
		}
		for j := range want[i].Chunks {
			if want[i].Chunks[j] != got[i].Chunks[j] {
				t.Fatalf("frame %d chunk %d differs: %+v vs %+v", i, j, want[i].Chunks[j], got[i].Chunks[j])
			}
		}
		if !bytes.Equal(want[i].Payload, got[i].Payload) {
			t.Fatalf("frame %d payload differs", i)
		}
	}
}

// Reconfigure must behave exactly like building a new link.
func TestLinkReconfigureMatchesNew(t *testing.T) {
	cfgA := LinkConfig{Modem: phy.OOK{SamplesPerChip: 4, Depth: 0.5}, ChunkSize: 32, Seed: 5,
		DistanceM: 4, TagNoiseW: 4e-9, Rho: 0.5}
	cfgB := LinkConfig{Modem: phy.OOK{SamplesPerChip: 4, Depth: 0.75}, ChunkSize: 16, Seed: 9,
		DistanceM: 3, TagNoiseW: 1e-8, ReaderNoiseW: 1e-8}
	payload := make([]byte, 192)

	l, err := NewLink(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.TransferFrame(payload, TransferOptions{PadChips: -1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reconfigure(cfgB); err != nil {
		t.Fatal(err)
	}
	reco, err := l.TransferFrame(payload, TransferOptions{PadChips: -1})
	if err != nil {
		t.Fatal(err)
	}

	ref, err := NewLink(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.TransferFrame(payload, TransferOptions{PadChips: -1})
	if err != nil {
		t.Fatal(err)
	}
	if reco.FeedbackErrors != want.FeedbackErrors || reco.ForwardBitErrors != want.ForwardBitErrors ||
		reco.SamplesUsed != want.SamplesUsed || reco.DeliveredOK != want.DeliveredOK ||
		!bytes.Equal(reco.Payload, want.Payload) {
		t.Fatalf("reconfigured link diverges from fresh link:\nreco: %+v\nwant: %+v", reco, want)
	}
}

// Regression: a corrupted header can slip past its CRC-8 (a 1-in-256
// collision under heavy noise) and decode to a different chunk count
// at the tag. Pre-fix, TransferFrame then drove the tag past its own
// frame end — panicking in ProcessChunk when the tag's count was
// smaller than the transmitted one, and mis-indexing the per-chunk
// results otherwise. The seed below deterministically produces a
// collision where the tag expects 2 chunks of a 6-chunk frame
// (found by sweeping seeds at fig7's noisiest operating point).
func TestTransferFrameSurvivesHeaderCRCCollision(t *testing.T) {
	cfg := LinkConfig{
		Modem:     phy.OOK{SamplesPerChip: 4, Depth: 0.75},
		DistanceM: 3, TagNoiseW: 1e-6, ReaderNoiseW: 1e-6,
		ChunkSize: 32, Seed: 2766,
	}
	l, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := simrand.New(cfg.Seed ^ 0xabc)
	payload := make([]byte, 192)
	sawCollision := false
	for f := 0; f < 2; f++ {
		for i := range payload {
			payload[i] = byte(src.IntN(256))
		}
		res, err := l.TransferFrame(payload, TransferOptions{PadChips: -1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Acquired {
			continue
		}
		tagN := l.Tag().ChunksExpected()
		n := res.Header.NumChunks()
		if tagN == n {
			continue
		}
		sawCollision = true
		if tagN >= n {
			t.Fatalf("hunted seed drifted: tagN=%d n=%d, want tagN < n", tagN, n)
		}
		// The reader transmitted the whole frame; every chunk must be
		// reported, and the chunks the tag never validated must read
		// as undelivered.
		if len(res.Chunks) != n {
			t.Fatalf("got %d chunk reports, want %d", len(res.Chunks), n)
		}
		for i := tagN; i < n; i++ {
			if res.Chunks[i].TagOK {
				t.Fatalf("chunk %d beyond the tag's decoded frame end reports TagOK", i)
			}
		}
		if res.DeliveredOK {
			t.Fatal("frame with a header collision cannot be DeliveredOK")
		}
	}
	if !sawCollision {
		t.Fatal("seed no longer produces a header CRC-8 collision; re-hunt one (sweep seeds at TagNoiseW=1e-6 until ChunksExpected() != Header.NumChunks())")
	}
}
