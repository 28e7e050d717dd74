package fdbackscatter

// One benchmark per figure/table of the evaluation (see the README's
// experiment index), plus micro-benchmarks of the hot paths. Each
// experiment benchmark executes the same runner cmd/fdbench uses, in
// quick mode so -bench completes in reasonable time; run cmd/fdbench for
// the full-trial tables. The *Parallel variants run the same experiment
// with a full worker pool, for serial-vs-parallel comparisons.

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sigproc"
	"repro/internal/simrand"
)

func benchExperiment(b *testing.B, id string) {
	benchExperimentWorkers(b, id, 1)
}

func benchExperimentWorkers(b *testing.B, id string, workers int) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := e.Run(bench.RunConfig{Seed: uint64(i) + 1, Quick: true, Workers: workers})
		if res.Table.NumRows() == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig1FeedbackBER(b *testing.B)      { benchExperiment(b, "fig1") }
func BenchmarkFig2FeedbackVsRho(b *testing.B)    { benchExperiment(b, "fig2") }
func BenchmarkFig3ForwardImpact(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFig4EarlyTermination(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig5CollisionDetect(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6RateAdaptation(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7WaveformLink(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkTab1FeedbackLatency(b *testing.B)  { benchExperiment(b, "tab1") }
func BenchmarkTab2EnergyBudget(b *testing.B)     { benchExperiment(b, "tab2") }

func BenchmarkFig1FeedbackBERParallel(b *testing.B) {
	benchExperimentWorkers(b, "fig1", bench.AutoWorkers())
}
func BenchmarkFig6RateAdaptationParallel(b *testing.B) {
	benchExperimentWorkers(b, "fig6", bench.AutoWorkers())
}
func BenchmarkFig7WaveformLinkParallel(b *testing.B) {
	benchExperimentWorkers(b, "fig7", bench.AutoWorkers())
}

func BenchmarkAblationSINorm(b *testing.B)       { benchExperiment(b, "abl-sinorm") }
func BenchmarkAblationFeedbackCode(b *testing.B) { benchExperiment(b, "abl-fbcode") }
func BenchmarkAblationChunkSize(b *testing.B)    { benchExperiment(b, "abl-chunk") }
func BenchmarkAblationThreshold(b *testing.B)    { benchExperiment(b, "abl-threshold") }

// --- micro-benchmarks of the hot paths ---

func BenchmarkLinkTransferFrame(b *testing.B) {
	l, err := core.NewLink(core.LinkConfig{
		Modem: phy.OOK{SamplesPerChip: 4}, ChunkSize: 32, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.TransferFrame(payload, core.TransferOptions{PadChips: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMACFullDuplex(b *testing.B) {
	params := mac.Params{PayloadBytes: 1500, ChunkBytes: 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		loss := mac.NewIIDLoss(0.1, simrand.New(uint64(i)))
		(&mac.FullDuplex{P: params, Seed: uint64(i)}).Run(100, loss)
	}
}

func BenchmarkEnvelopeNormalizeDecode(b *testing.B) {
	// The reader's per-chunk feedback decode path.
	rd := mustReaderBench(b)
	src := simrand.New(2)
	const n = 4096
	tx := sigproc.NewIQ(n).Fill(complex(0.3, 0))
	rx := tx.Clone().Scale(0.1)
	src.FillNoise(rx, 1e-6)
	b.ReportAllocs()
	b.SetBytes(n * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.DecodeFeedbackBit(rx, tx)
	}
}

func mustReaderBench(b *testing.B) interface {
	DecodeFeedbackBit(rx, tx sigproc.IQ) (byte, float64)
} {
	b.Helper()
	l, err := core.NewLink(core.LinkConfig{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	return l.Reader()
}

// Keep the facade itself exercised.
func BenchmarkFacadeExperimentList(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(Experiments()) < 10 {
			b.Fatal("experiments missing")
		}
	}
}

// BenchmarkLinkTransferFrameInto measures the steady-state Monte-Carlo
// hot path the experiment harness actually runs: one reused link, one
// recycled result, zero allocations per frame (enforced by
// TestTransferFrameIntoAllocFree in internal/core).
func BenchmarkLinkTransferFrameInto(b *testing.B) {
	l, err := core.NewLink(core.LinkConfig{
		Modem: phy.OOK{SamplesPerChip: 4}, ChunkSize: 32, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	var res core.TransferResult
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.TransferFrameInto(payload, core.TransferOptions{PadChips: 8}, &res); err != nil {
			b.Fatal(err)
		}
	}
}
