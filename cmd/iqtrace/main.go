// Command iqtrace runs frames over one waveform-level full-duplex
// backscatter link, the core.Link the experiments simulate, and prints
// per-frame statistics and a summary. With -out it also writes every
// sample the link renders as CSV: the reader's transmit envelope, the
// envelope incident at the tag, the reader's receive envelope and the
// tag's antenna state, the view a VSA/oscilloscope would give on the
// real testbed. rx_env is empty where the reader renders no receive
// chain: in the acquisition block past the idle pad it calibrates on.
// stdout is the same with or without -out.
//
// Usage:
//
//	iqtrace -frames 10 -dist 3 -rho 0.3 -chunk 32 -payload 256
//	iqtrace -interferer -duty 0.3 -early   # collision + early termination
//	iqtrace -frames 1 -payload 64 -out trace.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"os"

	"repro/internal/core"
	"repro/internal/phy"
	"repro/internal/simrand"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iqtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		frames  = fs.Int("frames", 10, "frames to transfer")
		payload = fs.Int("payload", 256, "payload bytes per frame")
		dist    = fs.Float64("dist", 2, "reader-tag distance (m)")
		rho     = fs.Float64("rho", 0.3, "tag reflection coefficient")
		chunk   = fs.Int("chunk", 32, "chunk size (bytes, 1-255)")
		txdbm   = fs.Float64("txdbm", 20, "reader transmit power (dBm)")
		noise   = fs.Float64("noise", -100, "receiver noise (dBm)")
		early   = fs.Bool("early", false, "early termination on NACK")
		intf    = fs.Bool("interferer", false, "enable a co-channel interferer")
		duty    = fs.Float64("duty", 0.3, "interferer duty cycle")
		seed    = fs.Uint64("seed", 1, "random seed")
		out     = fs.String("out", "", "write every rendered sample of every frame to this CSV file")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *frames < 0 || *payload < 0 || *chunk < 1 || *chunk > 255 {
		fmt.Fprintln(stderr, "iqtrace: -frames and -payload must be >= 0, -chunk in [1, 255]")
		return 2
	}

	cfg := core.LinkConfig{
		Modem:        phy.OOK{SamplesPerChip: 4, Depth: 0.75},
		DistanceM:    *dist,
		Rho:          *rho,
		ChunkSize:    uint8(*chunk),
		TxPowerW:     dbmToW(*txdbm),
		ReaderNoiseW: dbmToW(*noise),
		TagNoiseW:    dbmToW(*noise),
		Seed:         *seed,
	}
	if *intf {
		cfg.Interferer = &core.InterfererConfig{
			PowerW: 0.5, DistanceToTagM: 1.5 * *dist, DistanceToReaderM: 2 * *dist,
			DutyCycle: *duty, BurstChunks: 2,
		}
	}
	l, err := core.NewLink(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "iqtrace:", err)
		return 1
	}

	opts := core.TransferOptions{EarlyTerminate: *early, PadChips: -1}
	var file *os.File
	var csv *bufio.Writer
	frame := 0
	if *out != "" {
		if file, err = os.Create(*out); err != nil {
			fmt.Fprintln(stderr, "iqtrace:", err)
			return 1
		}
		defer file.Close()
		csv = bufio.NewWriter(file)
		fmt.Fprintln(csv, "frame,sample,tx_env,incident_env,rx_env,tag_state")
		opts.Tap = func(b core.Block) { writeBlock(csv, frame, b) }
	}

	src := simrand.New(*seed + 1)
	data := make([]byte, *payload)
	var delivered, aborted int
	var fwdBits, fwdErrs, fbBits, fbErrs int
	var used, full int64
	var res core.TransferResult
	for ; frame < *frames; frame++ {
		for i := range data {
			data[i] = byte(src.IntN(256))
		}
		if err := l.TransferFrameInto(data, opts, &res); err != nil {
			fmt.Fprintln(stderr, "iqtrace:", err)
			return 1
		}
		status := "ok"
		switch {
		case !res.Acquired:
			status = "NO-SYNC"
		case res.Aborted:
			status = fmt.Sprintf("ABORT@%d", res.AbortAfterChunk)
		case !res.DeliveredOK:
			status = "CORRUPT"
		}
		fmt.Fprintf(stdout, "frame %2d seq=%3d %-9s chunks=%d fwdErrs=%d fbErrs=%d/%d airtime=%d/%d harvested=%.2euJ\n",
			frame, res.Header.Seq, status, len(res.Chunks),
			res.ForwardBitErrors, res.FeedbackErrors, res.FeedbackBits,
			res.SamplesUsed, res.SamplesFull, res.HarvestedJ*1e6)
		if res.DeliveredOK {
			delivered++
		}
		if res.Aborted {
			aborted++
		}
		fwdBits += res.ForwardBits
		fwdErrs += res.ForwardBitErrors
		fbBits += res.FeedbackBits
		fbErrs += res.FeedbackErrors
		used += int64(res.SamplesUsed)
		full += int64(res.SamplesFull)
	}
	fmt.Fprintf(stdout, "\ndelivered %d/%d frames, aborted %d\n", delivered, *frames, aborted)
	if fwdBits > 0 {
		fmt.Fprintf(stdout, "forward BER  %.3e (%d/%d)\n", float64(fwdErrs)/float64(fwdBits), fwdErrs, fwdBits)
	}
	if fbBits > 0 {
		fmt.Fprintf(stdout, "feedback BER %.3e (%d/%d)\n", float64(fbErrs)/float64(fbBits), fbErrs, fbBits)
	}
	if full > 0 {
		fmt.Fprintf(stdout, "airtime used %.1f%% of booked\n", 100*float64(used)/float64(full))
	}
	if csv != nil {
		err := csv.Flush()
		if err == nil {
			err = file.Close()
		}
		if err != nil {
			fmt.Fprintln(stderr, "iqtrace:", err)
			return 1
		}
	}
	return 0
}

// writeBlock appends one CSV row per sample of a tapped block. The
// acquisition block's Rx covers only the idle pad; past it rx_env is
// left empty.
func writeBlock(w io.Writer, frame int, b core.Block) {
	for i := range b.Tx {
		rx := ""
		if i < len(b.Rx) {
			rx = fmt.Sprintf("%.6e", cmplx.Abs(b.Rx[i]))
		}
		fmt.Fprintf(w, "%d,%d,%.6e,%.6e,%s,%d\n", frame, b.Start+i,
			cmplx.Abs(b.Tx[i]), cmplx.Abs(b.Incident[i]), rx, b.States[i])
	}
}

func dbmToW(dbm float64) float64 {
	return math.Pow(10, dbm/10) / 1000
}
