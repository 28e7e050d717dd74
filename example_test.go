package fdbackscatter_test

import (
	"fmt"
	"log"

	fdbackscatter "repro"
)

// Transfer one frame over a full-duplex backscatter link and watch the
// concurrent feedback arrive chunk by chunk.
func ExampleNewLink() {
	// A reader 2 m from a battery-free tag, default 915 MHz indoor
	// propagation, 32-byte chunks.
	link, err := fdbackscatter.NewLink(fdbackscatter.LinkConfig{
		DistanceM: 2,
		Rho:       0.3, // tag reflects 30% of incident power for feedback
		ChunkSize: 32,
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}

	payload := []byte("Full-duplex backscatter: the tag ACKs every chunk while it is still receiving the next one.")
	res, err := link.TransferFrame(payload, fdbackscatter.TransferOptions{
		EarlyTerminate: true,
		PadChips:       -1, // random pre-frame idle, exercises tag sync
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("tag acquired frame: %v (seq %d, %d chunks)\n",
		res.Acquired, res.Header.Seq, len(res.Chunks))
	for i, c := range res.Chunks {
		fmt.Printf("  chunk %d: delivered=%v readerSawACK=%v margin=%.4f\n",
			i, c.TagOK, c.ReaderSawBit && c.ReaderBit == 1, c.Margin)
	}
	fmt.Printf("payload delivered intact: %v\n", res.DeliveredOK && string(res.Payload) == string(payload))
	fmt.Printf("feedback bits decoded concurrently with TX: %d (errors: %d)\n",
		res.FeedbackBits, res.FeedbackErrors)
	fmt.Printf("tag harvested %.3g uJ during the exchange\n", res.HarvestedJ*1e6)
	// Output:
	// tag acquired frame: true (seq 0, 3 chunks)
	//   chunk 0: delivered=true readerSawACK=true margin=0.0001
	//   chunk 1: delivered=true readerSawACK=true margin=0.0001
	//   chunk 2: delivered=true readerSawACK=true margin=0.0001
	// payload delivered intact: true
	// feedback bits decoded concurrently with TX: 4 (errors: 0)
	// tag harvested 0.0173 uJ during the exchange
}

// Early termination, the paper's headline application: a frame doomed
// by interference is aborted within a chunk or two instead of burning
// the whole airtime and waiting for an ACK timeout. The saving is
// measured at the waveform level (one link, one interferer) and at the
// protocol level (thousands of frames).
func ExampleTransferOptions() {
	fmt.Println("--- waveform level: one doomed frame ---")
	link, err := fdbackscatter.NewLink(fdbackscatter.LinkConfig{
		DistanceM: 2,
		ChunkSize: 16,
		Seed:      7,
		Interferer: &fdbackscatter.InterfererConfig{
			PowerW:            1.0,
			DistanceToTagM:    1.0,
			DistanceToReaderM: 3.0,
			DutyCycle:         1.0, // jammed continuously: every chunk dies
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	payload := make([]byte, 320) // 20 chunks
	res, err := link.TransferFrame(payload, fdbackscatter.TransferOptions{
		EarlyTerminate: true, PadChips: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("acquired: %v, aborted: %v after chunk %d of %d\n",
		res.Acquired, res.Aborted, res.AbortAfterChunk, res.Header.NumChunks())
	fmt.Printf("airtime spent: %d of %d samples (saved %.0f%%)\n",
		res.SamplesUsed, res.SamplesFull,
		100*(1-float64(res.SamplesUsed)/float64(res.SamplesFull)))

	fmt.Println()
	fmt.Println("--- protocol level: 2000 frames per point ---")
	params := fdbackscatter.MACParams{PayloadBytes: 1500, ChunkBytes: 64}
	fmt.Printf("%-6s  %-13s  %-11s  %s\n", "loss", "stop-and-wait", "full-duplex", "gain")
	for _, p := range []float64{0.01, 0.05, 0.1, 0.2, 0.3} {
		sw := fdbackscatter.NewStopAndWaitProtocol(params).
			Run(2000, fdbackscatter.NewIIDLoss(p, 1))
		fd := fdbackscatter.NewFullDuplexProtocol(params, 2).
			Run(2000, fdbackscatter.NewIIDLoss(p, 3))
		gain := 0.0
		if sw.Efficiency() > 0 {
			gain = fd.Efficiency() / sw.Efficiency()
		}
		fmt.Printf("%-6.2f  %-13.4f  %-11.4f  %6.1fx\n",
			p, sw.Efficiency(), fd.Efficiency(), gain)
	}
	// Output:
	// --- waveform level: one doomed frame ---
	// acquired: true, aborted: true after chunk 0 of 20
	// airtime spent: 1684 of 23704 samples (saved 93%)
	//
	// --- protocol level: 2000 frames per point ---
	// loss    stop-and-wait  full-duplex  gain
	// 0.01    0.7441         0.9433          1.3x
	// 0.05    0.2761         0.9014          3.3x
	// 0.10    0.0755         0.8514         11.3x
	// 0.20    0.0046         0.7559        165.4x
	// 0.30    0.0001         0.6591       7433.5x
}

// The tag is battery-free, so the reflection coefficient rho trades
// feedback signal strength against harvested power. Real waveform
// transfers at several rho values report both sides of the trade:
// harvested energy per frame and the reader's feedback decode margin.
// Higher rho gives stronger feedback (a bigger margin) and harvests
// less energy: the operating point is a deployment choice.
func ExampleLinkConfig() {
	payload := make([]byte, 192)
	fmt.Println("rho sweep at 3 m, 20 dBm reader, 6 frames per point")
	fmt.Printf("%-5s  %-16s  %-16s  %s\n",
		"rho", "harvested_uJ/frm", "feedback_margin", "delivered")
	for _, rho := range []float64{0.1, 0.2, 0.3, 0.5, 0.7, 0.9} {
		link, err := fdbackscatter.NewLink(fdbackscatter.LinkConfig{
			DistanceM: 3,
			Rho:       rho,
			ChunkSize: 32,
			Seed:      uint64(rho * 1000),
		})
		if err != nil {
			log.Fatal(err)
		}
		var harvested, margin float64
		var chunks, delivered, frames int
		for f := 0; f < 6; f++ {
			res, err := link.TransferFrame(payload, fdbackscatter.TransferOptions{PadChips: -1})
			if err != nil {
				log.Fatal(err)
			}
			frames++
			harvested += res.HarvestedJ
			if res.DeliveredOK {
				delivered++
			}
			for _, c := range res.Chunks {
				if c.ReaderSawBit {
					margin += c.Margin
					chunks++
				}
			}
		}
		avgMargin := 0.0
		if chunks > 0 {
			avgMargin = margin / float64(chunks)
		}
		fmt.Printf("%-5.1f  %-16.4g  %-16.5f  %d/%d\n",
			rho, harvested/float64(frames)*1e6, avgMargin, delivered, frames)
	}
	// Output:
	// rho sweep at 3 m, 20 dBm reader, 6 frames per point
	// rho    harvested_uJ/frm  feedback_margin   delivered
	// 0.1    0.01175           0.00001           6/6
	// 0.2    0.01117           0.00002           6/6
	// 0.3    0.01056           0.00002           6/6
	// 0.5    0.009375          0.00003           6/6
	// 0.7    0.008204          0.00004           0/6
	// 0.9    0.007018          0.00004           0/6
}

// Backscatter tags cannot carrier-sense, so a half-duplex reader
// transmits blindly through collisions and discovers the loss only at
// the ACK timeout. With full-duplex feedback the corrupted-chunk NACKs
// reveal the collision mid-frame; the reader aborts, backs off, and
// retries when the channel clears. This sweeps an interferer-style
// burst loss and reports wasted airtime: fd-detect stays lowest, since
// a doomed frame stops within about two chunks while the half-duplex
// reader burns the whole frame plus the ACK.
func ExampleNewBurstLoss() {
	params := fdbackscatter.MACParams{
		PayloadBytes:   1500,
		ChunkBytes:     64,
		AbortThreshold: 2,  // abort after 2 consecutive NACKs
		BackoffChunks:  24, // defer while the burst passes
	}
	blind := params
	blind.AbortThreshold = 1 << 30 // never aborts

	fmt.Println("wasted airtime fraction vs interferer load (3000 frames/point)")
	fmt.Printf("%-10s  %-13s  %-12s  %s\n",
		"burst_duty", "half-duplex", "fd-blind", "fd-detect")
	for _, start := range []float64{0.002, 0.005, 0.01, 0.02, 0.05} {
		mkLoss := func(seed uint64) fdbackscatter.Loss {
			return fdbackscatter.NewBurstLoss(seed, start, 20, 1, 0.005)
		}
		busy := start * 20 // mean burst of 20 chunks
		duty := busy / (1 + busy - start)
		sw := fdbackscatter.NewStopAndWaitProtocol(params).Run(3000, mkLoss(1))
		fdBlind := fdbackscatter.NewFullDuplexProtocol(blind, 2).Run(3000, mkLoss(2))
		fdDetect := fdbackscatter.NewFullDuplexProtocol(params, 3).Run(3000, mkLoss(3))
		fmt.Printf("%-10.3f  %-13.3f  %-12.3f  %.3f\n",
			duty, sw.WastedFraction(), fdBlind.WastedFraction(), fdDetect.WastedFraction())
	}
	// Output:
	// wasted airtime fraction vs interferer load (3000 frames/point)
	// burst_duty  half-duplex    fd-blind      fd-detect
	// 0.039       0.196          0.036         0.011
	// 0.091       0.285          0.087         0.020
	// 0.168       0.425          0.161         0.038
	// 0.290       0.612          0.285         0.073
	// 0.513       0.866          0.508         0.186
}

// Per-chunk feedback lets the reader react to a fade within one chunk,
// where packet-level probing needs whole lost frames to notice. Both
// policies, plus fixed-rate anchors, run over the same correlated
// Rayleigh fading trace: fd tracks the fades chunk by chunk, arf only
// moves at frame boundaries, and the fixed anchors bracket the
// achievable range.
func ExampleRunAdaptationTrace() {
	const chunks = 100000
	fmt.Println("throughput (payload bytes per base chunk-time), 100k chunks/point")
	fmt.Printf("%-9s  %-10s  %-10s  %-11s  %s\n",
		"mean_snr", "fd", "arf", "fixed-slow", "fixed-fast")
	for _, snr := range []float64{4, 8, 12, 16, 20} {
		cfg := fdbackscatter.AdaptConfig{
			MeanSNRdB:   snr,
			FadeRho:     0.97, // coherence ~ 30 chunk-times
			FrameChunks: 48,   // ARF learns 48x slower than FD
			Seed:        uint64(snr * 10),
		}
		fd := fdbackscatter.RunAdaptationTrace(cfg, "fd", chunks)
		arf := fdbackscatter.RunAdaptationTrace(cfg, "arf", chunks)
		slow := fdbackscatter.RunAdaptationTrace(cfg, "fixed-slow", chunks)
		fast := fdbackscatter.RunAdaptationTrace(cfg, "fixed-fast", chunks)
		fmt.Printf("%-9.0f  %-10.2f  %-10.2f  %-11.2f  %.2f\n",
			snr,
			fd.ThroughputBytesPerTime(), arf.ThroughputBytesPerTime(),
			slow.ThroughputBytesPerTime(), fast.ThroughputBytesPerTime())
	}
	// Output:
	// throughput (payload bytes per base chunk-time), 100k chunks/point
	// mean_snr   fd          arf         fixed-slow   fixed-fast
	// 4          8.36        8.54        8.54         0.01
	// 8          14.79       12.42       12.40        2.95
	// 12         23.39       14.60       14.42        27.23
	// 16         37.49       16.35       15.41        69.15
	// 20         54.17       17.59       15.73        99.15
}
