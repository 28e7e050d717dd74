package phy

import (
	"math"
	"testing"

	"repro/internal/simrand"
)

func TestDefaultPreambleChips(t *testing.T) {
	chips := DefaultPreambleChips(8)
	if len(chips) != 8+13 {
		t.Fatalf("len = %d", len(chips))
	}
	// Warmup alternates.
	for i := 1; i < 8; i++ {
		if chips[i] == chips[i-1] {
			t.Fatal("warmup must alternate")
		}
	}
	if DefaultPreambleChips(-3)[0] != 1 {
		t.Fatal("negative warmup should clamp to pure sync word (barker starts with 1)")
	}
}

func TestPreambleTemplateLevels(t *testing.T) {
	o := OOK{SamplesPerChip: 2, Depth: 0.5}
	tpl := PreambleTemplate(o, []byte{1, 0})
	if len(tpl) != 4 {
		t.Fatalf("len = %d", len(tpl))
	}
	if tpl[0] != 1 || tpl[2] != 0.5 {
		t.Fatalf("template = %v", tpl)
	}
}

func buildSyncScenario(o OOK, gain float64, offset int, noise float64, seed uint64) ([]float64, []float64, []byte) {
	chips := DefaultPreambleChips(8)
	tpl := PreambleTemplate(o, chips)
	payloadChips := []byte{1, 1, 0, 1, 0, 0, 1, 0}
	wave := o.AppendChips(nil, append(append([]byte{}, chips...), payloadChips...))
	env := make([]float64, offset+len(wave))
	// Leading idle carrier before the frame.
	for i := 0; i < offset; i++ {
		env[i] = o.LevelHigh() * gain
	}
	for i, v := range wave {
		env[offset+i] = real(v) * gain
	}
	if noise > 0 {
		src := simrand.New(seed)
		for i := range env {
			env[i] += src.Gaussian(0, noise)
		}
	}
	return env, tpl, payloadChips
}

func TestDetectPreambleExactOffset(t *testing.T) {
	o := OOK{SamplesPerChip: 4}
	env, tpl, _ := buildSyncScenario(o, 1, 37, 0, 0)
	res, ok := NewPreambleDetector(tpl).Detect(env, 0.7)
	if !ok {
		t.Fatal("preamble not detected")
	}
	if res.PeakIndex != 37 {
		t.Fatalf("peak at %d, want 37", res.PeakIndex)
	}
	if res.Start != 37+len(tpl) {
		t.Fatalf("start = %d", res.Start)
	}
	if res.Corr < 0.99 {
		t.Fatalf("clean correlation = %g", res.Corr)
	}
}

func TestDetectPreambleAmplitudeInvariant(t *testing.T) {
	o := OOK{SamplesPerChip: 4}
	env, tpl, _ := buildSyncScenario(o, 1e-4, 21, 0, 0)
	res, ok := NewPreambleDetector(tpl).Detect(env, 0.7)
	if !ok || res.PeakIndex != 21 {
		t.Fatalf("detection failed at low amplitude: %+v ok=%v", res, ok)
	}
}

func TestDetectPreambleNoisy(t *testing.T) {
	o := OOK{SamplesPerChip: 4}
	env, tpl, _ := buildSyncScenario(o, 1, 50, 0.1, 42)
	res, ok := NewPreambleDetector(tpl).Detect(env, 0.6)
	if !ok {
		t.Fatal("preamble not detected under noise")
	}
	if res.PeakIndex < 48 || res.PeakIndex > 52 {
		t.Fatalf("noisy peak at %d, want ~50", res.PeakIndex)
	}
}

func TestDetectPreambleAbsent(t *testing.T) {
	o := OOK{SamplesPerChip: 4}
	tpl := PreambleTemplate(o, DefaultPreambleChips(8))
	src := simrand.New(9)
	env := make([]float64, 2*len(tpl))
	for i := range env {
		env[i] = math.Abs(src.Gaussian(0.5, 0.2))
	}
	if _, ok := NewPreambleDetector(tpl).Detect(env, 0.8); ok {
		t.Fatal("pure noise must not trigger detection at high threshold")
	}
}

func TestDetectPreambleShortInput(t *testing.T) {
	tpl := []float64{1, 0, 1}
	if _, ok := NewPreambleDetector(tpl).Detect([]float64{1}, 0.5); ok {
		t.Fatal("input shorter than template must not detect")
	}
	if _, ok := NewPreambleDetector(nil).Detect([]float64{1, 2, 3}, 0.5); ok {
		t.Fatal("empty template must not detect")
	}
}

func TestEstimateChannelAmp(t *testing.T) {
	o := OOK{SamplesPerChip: 4}
	const gain = 0.01
	env, tpl, _ := buildSyncScenario(o, gain, 10, 0, 0)
	res, ok := NewPreambleDetector(tpl).Detect(env, 0.7)
	if !ok {
		t.Fatal("no sync")
	}
	amp := EstimateChannelAmp(env, tpl, res.PeakIndex)
	if math.Abs(amp-gain) > gain*0.01 {
		t.Fatalf("estimated amp %g, want %g", amp, gain)
	}
}

func TestEstimateChannelAmpBounds(t *testing.T) {
	if EstimateChannelAmp([]float64{1}, []float64{1, 1}, 0) != 0 {
		t.Fatal("out-of-range window must return 0")
	}
	if EstimateChannelAmp([]float64{1, 1}, []float64{1, 1}, -1) != 0 {
		t.Fatal("negative peak index must return 0")
	}
	if EstimateChannelAmp([]float64{1, 1}, []float64{0, 0}, 0) != 0 {
		t.Fatal("zero template must return 0")
	}
}

func TestSyncEndToEndChipRecovery(t *testing.T) {
	// Full pipeline: detect preamble, then decode payload chips using the
	// estimated amplitude.
	o := OOK{SamplesPerChip: 4, Depth: 0.75}
	const gain = 0.02
	env, tpl, payloadChips := buildSyncScenario(o, gain, 33, 0.001, 7)
	res, ok := NewPreambleDetector(tpl).Detect(env, 0.7)
	if !ok {
		t.Fatal("no sync")
	}
	amp := EstimateChannelAmp(env, tpl, res.PeakIndex)
	levels := o.ChipLevels(env, res.Start, nil)
	thr := o.SliceThreshold(amp)
	for i, want := range payloadChips {
		got := byte(0)
		if levels[i] > thr {
			got = 1
		}
		if got != want {
			t.Fatalf("chip %d: got %d, want %d (levels=%v thr=%g)", i, got, want, levels[:len(payloadChips)], thr)
		}
	}
}
