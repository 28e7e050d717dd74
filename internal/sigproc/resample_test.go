package sigproc

import (
	"math/cmplx"
	"testing"
)

func TestFractionalDelayInteger(t *testing.T) {
	x := IQ{1, 2, 3, 4}
	y := FractionalDelay(x, 2, nil)
	want := IQ{0, 0, 1, 2}
	for i := range want {
		if cmplx.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestFractionalDelayHalfSample(t *testing.T) {
	x := IQ{0, 2, 4, 6}
	y := FractionalDelay(x, 0.5, nil)
	// Linear interpolation: y[i] = (x[i-1] + x[i]) / 2 for interior points.
	if cmplx.Abs(y[1]-1) > 1e-12 || cmplx.Abs(y[2]-3) > 1e-12 {
		t.Fatalf("half-sample delay wrong: %v", y)
	}
}

func TestFractionalDelayZero(t *testing.T) {
	x := IQ{1 + 1i, 2, 3}
	y := FractionalDelay(x, 0, nil)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("zero delay must be identity: %v", y)
		}
	}
}

func TestFractionalDelayNegativeAdvances(t *testing.T) {
	x := IQ{1, 2, 3, 4}
	y := FractionalDelay(x, -1, nil)
	if y[0] != 2 || y[2] != 4 {
		t.Fatalf("advance wrong: %v", y)
	}
	if y[3] != 0 {
		t.Fatalf("samples beyond end should be 0, got %v", y[3])
	}
}
