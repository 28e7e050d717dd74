package sigproc

import (
	"math"
	"testing"
)

func TestNormalizedCorrelateBounds(t *testing.T) {
	pattern := []float64{1, -1, 1, -1}
	x := []float64{0, 1, -1, 1, -1, 0, 0, 5, 5, 5}
	c := NewMatcher(pattern).Correlate(x, nil)
	for i, v := range c {
		if v > 1+1e-9 || v < -1-1e-9 {
			t.Fatalf("correlation %d out of [-1,1]: %g", i, v)
		}
	}
	if got := PeakIndex(c); got != 1 {
		t.Fatalf("peak at %d, want 1", got)
	}
	if c[1] < 0.999 {
		t.Fatalf("exact match should correlate ~1, got %g", c[1])
	}
}

func TestNormalizedCorrelateScaleInvariant(t *testing.T) {
	pattern := []float64{1, 2, 3, 2, 1}
	x := make([]float64, 20)
	for i, p := range pattern {
		x[6+i] = p * 100 // heavily scaled copy
	}
	c := NewMatcher(pattern).Correlate(x, nil)
	if got := PeakIndex(c); got != 6 {
		t.Fatalf("peak at %d, want 6", got)
	}
	if c[6] < 0.999 {
		t.Fatalf("scaled match should still correlate ~1, got %g", c[6])
	}
}

func TestNormalizedCorrelateZeroEnergy(t *testing.T) {
	// Constant pattern has zero variance after mean removal: define as 0.
	c := NewMatcher([]float64{5, 5}).Correlate([]float64{1, 2, 3}, nil)
	for _, v := range c {
		if v != 0 {
			t.Fatalf("zero-energy pattern should give 0, got %g", v)
		}
	}
}

func TestPeakIndexEmpty(t *testing.T) {
	if PeakIndex(nil) != -1 {
		t.Fatal("empty PeakIndex should be -1")
	}
}

// normalizedCorrelate is the textbook definition a Matcher must reproduce:
// at each offset, the cosine similarity of the mean-removed window and the
// mean-removed pattern, or 0 where either has zero energy.
func normalizedCorrelate(x, pattern []float64) []float64 {
	pm := MeanFloat(pattern)
	out := make([]float64, 0, len(x))
	for i := 0; i+len(pattern) <= len(x); i++ {
		w := x[i : i+len(pattern)]
		wm := MeanFloat(w)
		var acc, we, pe float64
		for j, p := range pattern {
			acc += (w[j] - wm) * (p - pm)
			we += (w[j] - wm) * (w[j] - wm)
			pe += (p - pm) * (p - pm)
		}
		if we == 0 || pe == 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, acc/math.Sqrt(we*pe))
	}
	return out
}

// A Matcher must compute the normalised correlation of its pattern, and
// reusing the matcher and its dst must reproduce its first result bit for
// bit: it is the hoisted-precompute form the preamble detector runs per
// frame.
func TestMatcherMatchesNormalizedCorrelate(t *testing.T) {
	src := []float64{0.4, 1.2, -0.7, 0.9, 0.1, 2.2, -1.5, 0.6, 0.0, 1.1, -0.3, 0.8}
	for _, pat := range [][]float64{
		{1, 0, 1},
		{2, 2, 2}, // zero-energy after mean removal
		{0.5, -1.5, 0.25, 1},
	} {
		want := normalizedCorrelate(src, pat)
		m := NewMatcher(pat)
		got := m.Correlate(src, nil)
		if len(got) != len(want) {
			t.Fatalf("length %d != %d", len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("pattern %v offset %d: matcher %v != definition %v", pat, i, got[i], want[i])
			}
		}
		// Reusing the matcher and its dst must not change results.
		first := append([]float64(nil), got...)
		again := m.Correlate(src, got[:0])
		for i := range again {
			if again[i] != first[i] {
				t.Fatalf("reused matcher diverged at %d", i)
			}
		}
	}
}

func TestMatcherCopiesPattern(t *testing.T) {
	pat := []float64{1, 2, 3}
	m := NewMatcher(pat)
	want := m.Correlate([]float64{1, 2, 3, 4, 5}, nil)
	pat[0] = 99 // mutate the caller's slice
	got := m.Correlate([]float64{1, 2, 3, 4, 5}, nil)
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("matcher must not alias the caller's pattern")
		}
	}
}

func TestMatcherAllocFree(t *testing.T) {
	m := NewMatcher([]float64{1, 0, 1, 0, 1})
	x := make([]float64, 256)
	for i := range x {
		x[i] = float64(i % 7)
	}
	dst := m.Correlate(x, nil)
	allocs := testing.AllocsPerRun(20, func() {
		dst = m.Correlate(x, dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("Matcher.Correlate with reused dst allocates %.1f objects", allocs)
	}
}
