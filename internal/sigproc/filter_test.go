package sigproc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMovingAverageConstantInput(t *testing.T) {
	m := NewMovingAverage(4)
	for i := 0; i < 10; i++ {
		got := m.Push(3)
		if !almostEq(got, 3, eps) {
			t.Fatalf("push %d: got %g, want 3", i, got)
		}
	}
}

func TestMovingAveragePartialWindow(t *testing.T) {
	m := NewMovingAverage(4)
	if got := m.Push(2); !almostEq(got, 2, eps) {
		t.Fatalf("first push = %g", got)
	}
	if got := m.Push(4); !almostEq(got, 3, eps) {
		t.Fatalf("second push = %g", got)
	}
	if got := m.Value(); !almostEq(got, 3, eps) {
		t.Fatalf("Value = %g", got)
	}
}

func TestMovingAverageSlides(t *testing.T) {
	m := NewMovingAverage(2)
	m.Push(0)
	m.Push(10)
	if got := m.Push(20); !almostEq(got, 15, eps) {
		t.Fatalf("got %g, want 15", got)
	}
}

func TestMovingAverageReset(t *testing.T) {
	m := NewMovingAverage(3)
	m.Push(5)
	m.Reset()
	if m.Value() != 0 {
		t.Fatal("Value after Reset should be 0")
	}
	if got := m.Push(7); !almostEq(got, 7, eps) {
		t.Fatalf("push after reset = %g", got)
	}
}

func TestMovingAveragePanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMovingAverage(0)
}

func TestMovingAverageWindow(t *testing.T) {
	if NewMovingAverage(7).Window() != 7 {
		t.Fatal("Window mismatch")
	}
}

// Property: after the window fills, the output equals the brute-force
// average of the last N inputs.
func TestMovingAverageMatchesBruteForce(t *testing.T) {
	f := func(vals []uint8, winRaw uint8) bool {
		win := int(winRaw%8) + 1
		if len(vals) < win {
			return true
		}
		m := NewMovingAverage(win)
		var last float64
		for _, v := range vals {
			last = m.Push(float64(v))
		}
		var sum float64
		for _, v := range vals[len(vals)-win:] {
			sum += float64(v)
		}
		return almostEq(last, sum/float64(win), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSinglePoleIIRConverges(t *testing.T) {
	f := NewSinglePoleIIR(1000, 1e6)
	var y float64
	for i := 0; i < 100000; i++ {
		y = f.Push(1)
	}
	if !almostEq(y, 1, 1e-6) {
		t.Fatalf("IIR should converge to input level, got %g", y)
	}
	f.Reset()
	if f.Value() != 0 {
		t.Fatal("Reset should clear state")
	}
}

func TestSinglePoleIIRSmooths(t *testing.T) {
	f := NewSinglePoleIIR(100, 1e6)
	// Alternate 0/2: output should settle near the mean 1 with small ripple.
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	var y float64
	for i := 0; i < 200000; i++ {
		x := float64(2 * (i % 2))
		y = f.Push(x)
		if i > 100000 {
			if y < lo {
				lo = y
			}
			if y > hi {
				hi = y
			}
		}
	}
	if hi-lo > 0.01 {
		t.Fatalf("ripple too large: [%g, %g]", lo, hi)
	}
	if math.Abs((lo+hi)/2-1) > 0.01 {
		t.Fatalf("settled mean %g, want ~1", (lo+hi)/2)
	}
}

func TestSinglePoleIIRPanics(t *testing.T) {
	for _, tc := range []struct{ fc, fs float64 }{{0, 1e6}, {1e6, 0}, {6e5, 1e6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for fc=%g fs=%g", tc.fc, tc.fs)
				}
			}()
			NewSinglePoleIIR(tc.fc, tc.fs)
		}()
	}
}
