package feedback

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/simrand"
)

func TestAppendStatesNRZ(t *testing.T) {
	c := Config{SamplesPerBit: 3, Code: CodeNRZ}
	states := c.AppendStates(nil, []byte{1, 0})
	want := []byte{1, 1, 1, 0, 0, 0}
	if !bytes.Equal(states, want) {
		t.Fatalf("states = %v", states)
	}
}

func TestAppendStatesManchester(t *testing.T) {
	c := Config{SamplesPerBit: 4, Code: CodeManchester}
	states := c.AppendStates(nil, []byte{1, 0})
	want := []byte{1, 1, 0, 0, 0, 0, 1, 1}
	if !bytes.Equal(states, want) {
		t.Fatalf("states = %v", states)
	}
}

func TestAppendStatesManchesterOddLength(t *testing.T) {
	c := Config{SamplesPerBit: 5, Code: CodeManchester}
	states := c.AppendStates(nil, []byte{1})
	if len(states) != 5 {
		t.Fatalf("len = %d, want 5 (bit period preserved)", len(states))
	}
	if states[0] != 1 || states[4] != 0 {
		t.Fatalf("states = %v", states)
	}
}

func TestAppendIdleStates(t *testing.T) {
	states := AppendIdleStates(nil, 4)
	if !bytes.Equal(states, []byte{0, 0, 0, 0}) {
		t.Fatalf("states = %v", states)
	}
}

func TestNormalizeBasic(t *testing.T) {
	rx := []float64{2, 4, 6}
	tx := []float64{1, 2, 3}
	norm := Normalize(rx, tx, 0, nil)
	for _, v := range norm {
		if math.Abs(v-2) > 1e-12 {
			t.Fatalf("norm = %v, want all 2", norm)
		}
	}
}

func TestNormalizeFloorHolds(t *testing.T) {
	rx := []float64{2, 100, 4}
	tx := []float64{1, 0, 2}
	norm := Normalize(rx, tx, 0.5, nil)
	if norm[1] != norm[0] {
		t.Fatalf("sub-floor sample must hold previous value: %v", norm)
	}
}

func TestNormalizePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Normalize([]float64{1}, []float64{1, 2}, 0, nil)
}

// synthNorm builds a normalised stream for given bits with additive
// Gaussian noise: absorb level 1.0, reflect level 1.0+delta.
func synthNorm(c Config, bits []byte, delta, sigma float64, seed uint64) []float64 {
	states := c.AppendStates(nil, bits)
	src := simrand.New(seed)
	out := make([]float64, len(states))
	for i, s := range states {
		v := 1.0
		if s == StateReflect {
			v += delta
		}
		out[i] = v + src.Gaussian(0, sigma)
	}
	return out
}

func TestDecodeBitsCleanBothCodes(t *testing.T) {
	src := simrand.New(1)
	bits := make([]byte, 64)
	for i := range bits {
		bits[i] = src.Bit()
	}
	for _, code := range []Code{CodeManchester, CodeNRZ} {
		c := Config{SamplesPerBit: 16, Code: code}
		norm := synthNorm(c, bits, 0.1, 0, 2)
		got := c.DecodeBits(norm, 1.05, nil)
		if !bytes.Equal(got, bits) {
			t.Fatalf("%v: clean decode failed", code)
		}
	}
}

func TestDecodeBitsNoisyAveragingWins(t *testing.T) {
	// At sigma comparable to delta, per-sample decisions would be bad,
	// but integrating 256 samples/bit must make errors vanishingly rare.
	src := simrand.New(3)
	bits := make([]byte, 200)
	for i := range bits {
		bits[i] = src.Bit()
	}
	c := Config{SamplesPerBit: 256, Code: CodeManchester}
	norm := synthNorm(c, bits, 0.05, 0.05, 4)
	got := c.DecodeBits(norm, 0, nil)
	if errs := countErrs(got, bits); errs != 0 {
		t.Fatalf("256x averaging: %d/200 errors", errs)
	}
}

func TestDecodeBitsRateBERTradeoff(t *testing.T) {
	// Same noise, shorter bit period -> strictly more errors.
	mkBits := func(n int) []byte {
		src := simrand.New(5)
		b := make([]byte, n)
		for i := range b {
			b[i] = src.Bit()
		}
		return b
	}
	berAt := func(spb int) float64 {
		c := Config{SamplesPerBit: spb, Code: CodeManchester}
		bits := mkBits(4000)
		norm := synthNorm(c, bits, 0.02, 0.15, 6)
		got := c.DecodeBits(norm, 0, nil)
		return float64(countErrs(got, bits)) / float64(len(bits))
	}
	fast := berAt(8)
	slow := berAt(128)
	if slow >= fast {
		t.Fatalf("averaging must reduce BER: slow %g vs fast %g", slow, fast)
	}
}

func countErrs(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	e := 0
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			e++
		}
	}
	return e
}

func TestDecodeOneMargin(t *testing.T) {
	c := Config{SamplesPerBit: 8, Code: CodeManchester}
	norm := synthNorm(c, []byte{1}, 0.2, 0, 7)
	bit, margin := c.DecodeOne(norm, 0)
	if bit != 1 {
		t.Fatalf("bit = %d", bit)
	}
	if math.Abs(margin-0.2) > 1e-9 {
		t.Fatalf("margin = %g, want 0.2", margin)
	}
	// Short input.
	if b, m := c.DecodeOne(norm[:3], 0); b != 0 || m != 0 {
		t.Fatal("short input must return zeros")
	}
}

func TestDecodeOneNRZ(t *testing.T) {
	c := Config{SamplesPerBit: 4, Code: CodeNRZ}
	norm := []float64{1.2, 1.2, 1.2, 1.2}
	bit, margin := c.DecodeOne(norm, 1.1)
	if bit != 1 || math.Abs(margin-0.1) > 1e-9 {
		t.Fatalf("bit=%d margin=%g", bit, margin)
	}
	bit, margin = c.DecodeOne([]float64{1, 1, 1, 1}, 1.1)
	if bit != 0 || math.Abs(margin-0.1) > 1e-9 {
		t.Fatalf("bit=%d margin=%g", bit, margin)
	}
}

func TestEstimateThreshold(t *testing.T) {
	c := Config{SamplesPerBit: 8, Code: CodeNRZ}
	// Pilot: alternating states.
	norm := synthNorm(c, []byte{1, 0, 1, 0}, 0.2, 0.001, 8)
	thr := c.EstimateThreshold(norm)
	if thr < 1.05 || thr > 1.15 {
		t.Fatalf("threshold = %g, want ~1.1", thr)
	}
	if c.EstimateThreshold(nil) != 0 {
		t.Fatal("empty stream threshold must be 0")
	}
}

func TestQFunc(t *testing.T) {
	if math.Abs(QFunc(0)-0.5) > 1e-12 {
		t.Fatalf("Q(0) = %g", QFunc(0))
	}
	if got := QFunc(3); math.Abs(got-0.00135) > 1e-4 {
		t.Fatalf("Q(3) = %g", got)
	}
	if QFunc(10) > 1e-20 {
		t.Fatal("Q(10) should be tiny")
	}
}

func TestManchesterBERMatchesMonteCarlo(t *testing.T) {
	delta, sigma := 0.05, 0.2
	const spb = 64
	c := Config{SamplesPerBit: spb, Code: CodeManchester}
	src := simrand.New(17)
	const nBits = 30000
	bits := make([]byte, nBits)
	for i := range bits {
		bits[i] = src.Bit()
	}
	norm := synthNorm(c, bits, delta, sigma, 18)
	got := c.DecodeBits(norm, 0, nil)
	empirical := float64(countErrs(got, bits)) / nBits
	analytic := ManchesterBER(delta, sigma, spb)
	if empirical < analytic*0.7 || empirical > analytic*1.4 {
		t.Fatalf("Manchester BER: empirical %g vs analytic %g", empirical, analytic)
	}
}

func TestManchesterBEREdges(t *testing.T) {
	if ManchesterBER(0, 1, 8) != 0.5 || ManchesterBER(1, 1, 1) != 0.5 {
		t.Fatal("degenerate inputs must give 0.5")
	}
	if ManchesterBER(1, 0, 8) != 0 {
		t.Fatal("noiseless must give 0")
	}
}

func TestCodeString(t *testing.T) {
	if CodeManchester.String() != "manchester" || CodeNRZ.String() != "nrz" || Code(9).String() == "" {
		t.Fatal("Code.String broken")
	}
}

// Property: states round-trip through the decoder for any bits at high
// SNR.
func TestStatesDecodeRoundTripProperty(t *testing.T) {
	f := func(data []byte, codeRaw bool) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 64 {
			data = data[:64]
		}
		bits := make([]byte, len(data))
		for i, b := range data {
			bits[i] = b & 1
		}
		code := CodeManchester
		if codeRaw {
			code = CodeNRZ
		}
		c := Config{SamplesPerBit: 8, Code: code}
		norm := synthNorm(c, bits, 0.3, 0, 99)
		got := c.DecodeBits(norm, 1.15, nil)
		return bytes.Equal(got, bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestNormalizeMatchesScalar pins Normalize to the sample-by-sample
// hold rule bit for bit, with sub-floor runs of every length at every
// position of buffers up to 21 samples, in place as well.
func TestNormalizeMatchesScalar(t *testing.T) {
	const floor = 0.5
	scalar := func(rx, tx []float64) []float64 {
		out := make([]float64, len(rx))
		prev := 0.0
		for i := range rx {
			if tx[i] < floor {
				out[i] = prev
				continue
			}
			out[i] = rx[i] / tx[i]
			prev = out[i]
		}
		return out
	}
	for n := 0; n <= 21; n++ {
		for pos := range n + 1 {
			for run := 0; pos+run <= n && run <= 6; run++ {
				rx, tx := make([]float64, n), make([]float64, n)
				for i := range rx {
					rx[i], tx[i] = 0.3+0.11*float64(i), 0.9+0.07*float64(i%4)
				}
				for i := pos; i < pos+run; i++ {
					tx[i] = 0.1
				}
				want := scalar(rx, tx)
				for _, inPlace := range []bool{false, true} {
					got := Normalize(rx, tx, floor, nil)
					if inPlace {
						buf := append([]float64(nil), rx...)
						got = Normalize(buf, tx, floor, buf[:0])
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("n=%d run %d at %d inPlace=%v: [%d] = %v, want %v", n, run, pos, inPlace, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestManchesterBERsMatchScalar holds the batch to ManchesterBER bit
// for bit: separations that put QFunc's Erfc argument next to every
// branch edge of math.Erfc (2^-56, 0.25, 0.84375, 1.25, 1/0.35, 6, 28),
// NaN and infinite inputs, delta <= 0, sigma <= 0 and samplesPerBit <
// 2, at every length up to 40 so each lane of a group and the scalar
// tail see them, written to a fresh slice and in place over delta.
func TestManchesterBERsMatchScalar(t *testing.T) {
	var deltas, sigmas []float64
	for _, x := range []float64{0x1p-56, 0.25, 0.84375, 1.25, 1 / 0.35, 6, 28, 0.5, 2, 40} {
		// samplesPerBit 4 makes the argument delta/sigma/Sqrt2.
		d := x * math.Sqrt2
		deltas = append(deltas, d, math.Nextafter(d, 0), math.Nextafter(d, 100))
	}
	deltas = append(deltas, 0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1))
	for _, s := range []float64{1, 0.5, 3, 0, math.Copysign(0, -1), -2, math.NaN(), math.Inf(1), 1e-300} {
		sigmas = append(sigmas, s)
	}
	r := simrand.New(3)
	for _, spb := range []int{4, 131072, 2, 1, 0, -3} {
		for n := 0; n <= 40; n++ {
			delta, sigma := make([]float64, n), make([]float64, n)
			for j := range delta {
				delta[j] = deltas[r.IntN(len(deltas))]
				sigma[j] = sigmas[r.IntN(len(sigmas))]
				if r.IntN(3) == 0 {
					sigma[j] = 1 // the edges themselves
				}
			}
			got := make([]float64, n)
			ManchesterBERs(got, delta, sigma, spb)
			inPlace := append([]float64(nil), delta...)
			ManchesterBERs(inPlace, inPlace, sigma, spb)
			for j := range delta {
				want := ManchesterBER(delta[j], sigma[j], spb)
				if math.Float64bits(got[j]) != math.Float64bits(want) || math.Float64bits(inPlace[j]) != math.Float64bits(want) {
					t.Fatalf("spb %d n %d lane %d: ManchesterBERs(%v, %v) = %v (in place %v), ManchesterBER = %v",
						spb, n, j, delta[j], sigma[j], got[j], inPlace[j], want)
				}
			}
		}
	}
}

// BenchmarkManchesterBERs times one derive block of BERs (512 links,
// every Erfc branch) through the batch and through the scalar loop.
func BenchmarkManchesterBERs(b *testing.B) {
	const n = 512
	r := simrand.New(9)
	delta, sigma, dst := make([]float64, n), make([]float64, n), make([]float64, n)
	for j := range delta {
		delta[j] = r.Float64() * 4 * math.Sqrt2
		sigma[j] = 1
	}
	b.Run("batch", func(b *testing.B) {
		for range b.N {
			ManchesterBERs(dst, delta, sigma, 4)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for range b.N {
			for j, d := range delta {
				dst[j] = ManchesterBER(d, sigma[j], 4)
			}
		}
	})
}
