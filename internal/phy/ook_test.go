package phy

import (
	"math"
	"testing"

	"repro/internal/sigproc"
)

func TestOOKDefaults(t *testing.T) {
	var o OOK
	if o.SamplesPerChipN() != 4 {
		t.Fatalf("default sps = %d", o.SamplesPerChipN())
	}
	if o.LevelHigh() != 1 {
		t.Fatalf("default high = %g", o.LevelHigh())
	}
	if math.Abs(o.LevelLow()-0.25) > 1e-12 {
		t.Fatalf("default low = %g, want 0.25", o.LevelLow())
	}
}

func TestOOKAppendChips(t *testing.T) {
	o := OOK{SamplesPerChip: 2, Depth: 0.5, Amplitude: 2}
	wave := o.AppendChips(nil, []byte{1, 0})
	if len(wave) != 4 {
		t.Fatalf("len = %d, want 4", len(wave))
	}
	if real(wave[0]) != 2 || real(wave[1]) != 2 {
		t.Fatalf("high chip = %v", wave[:2])
	}
	if real(wave[2]) != 1 || real(wave[3]) != 1 {
		t.Fatalf("low chip = %v (want amplitude 1)", wave[2:])
	}
}

func TestOOKAppendIdle(t *testing.T) {
	o := OOK{SamplesPerChip: 3}
	wave := o.AppendIdle(nil, 2)
	if len(wave) != 6 {
		t.Fatalf("len = %d", len(wave))
	}
	for _, v := range wave {
		if real(v) != o.LevelHigh() {
			t.Fatalf("idle must be at high level: %v", v)
		}
	}
}

func TestOOKNumSamples(t *testing.T) {
	o := OOK{SamplesPerChip: 8}
	if o.NumSamples(10) != 80 {
		t.Fatal("NumSamples mismatch")
	}
}

func TestOOKChipLevels(t *testing.T) {
	o := OOK{SamplesPerChip: 4}
	chips := []byte{1, 0, 1}
	wave := o.AppendChips(nil, chips)
	env := wave.Envelope(nil)
	levels := o.ChipLevels(env, 0, nil)
	if len(levels) != 3 {
		t.Fatalf("levels = %v", levels)
	}
	if math.Abs(levels[0]-1) > 1e-12 || math.Abs(levels[1]-0.25) > 1e-12 {
		t.Fatalf("levels = %v", levels)
	}
}

func TestOOKChipLevelsOffset(t *testing.T) {
	o := OOK{SamplesPerChip: 2}
	env := []float64{9, 9, 1, 1, 0, 0} // two junk samples then chips
	levels := o.ChipLevels(env, 2, nil)
	if len(levels) != 2 || levels[0] != 1 || levels[1] != 0 {
		t.Fatalf("levels = %v", levels)
	}
	// Negative offset clamps to zero.
	l2 := o.ChipLevels(env, -5, nil)
	if len(l2) != 3 {
		t.Fatalf("clamped offset levels = %v", l2)
	}
}

func TestOOKModulateDemodulateRoundTrip(t *testing.T) {
	o := OOK{SamplesPerChip: 5, Depth: 0.75}
	code := &FM0{}
	bits := randomBits(400, 11)
	chips := code.Encode(bits, nil)
	wave := o.AppendChips(nil, chips)
	env := wave.Envelope(nil)
	levels := o.ChipLevels(env, 0, nil)
	got := (&FM0{}).Decode(levels, o.SliceThreshold(1), nil)
	if sigproc.CountBitErrors(got, bits) != 0 {
		t.Fatal("noiseless OOK round trip must be perfect")
	}
}

func TestOOKMeanPower(t *testing.T) {
	o := OOK{Depth: 1, Amplitude: 1} // true on-off keying
	if math.Abs(o.MeanPower()-0.5) > 1e-12 {
		t.Fatalf("mean power = %g, want 0.5", o.MeanPower())
	}
}

func TestOOKSliceThresholdScales(t *testing.T) {
	o := OOK{Depth: 0.5}
	base := o.SliceThreshold(1)
	if got := o.SliceThreshold(0.1); math.Abs(got-base*0.1) > 1e-12 {
		t.Fatalf("threshold does not scale with channel amplitude")
	}
}
