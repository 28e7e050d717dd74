package simrand

import "testing"

// A Source is its PCG state by value, so a copy is an exact stream
// capture: it continues the original draw sequence word for word,
// across every distribution helper (they all consume the same
// underlying PCG), and advancing the copy leaves the original where it
// was.
func TestStateRoundTrip(t *testing.T) {
	src := New(42)
	for i := 0; i < 17; i++ {
		src.Uint64()
		src.Float64()
		src.Normal()
	}
	clone := *src
	for i := 0; i < 100; i++ {
		if a, b := src.Uint64(), clone.Uint64(); a != b {
			t.Fatalf("draw %d: original %#x, copy %#x", i, a, b)
		}
	}
	if clone != *src {
		t.Fatal("a copy advanced in lockstep must equal the original")
	}
	clone.Uint64()
	if clone == *src {
		t.Fatal("advancing a copy must not advance the original")
	}
}

// A Split child's state is exactly the two words drawn from the parent:
// SetState(a, b) on any source reproduces the child stream. This is the
// contract the netsim engine's inline per-tag stream storage relies on.
func TestSetStateMatchesSplit(t *testing.T) {
	parent := New(99)
	mirror := New(99)
	child := parent.Split()
	w1, w2 := mirror.Uint64(), mirror.Uint64()

	var manual Source
	manual.SetState(w1, w2)
	if manual != *child {
		t.Fatal("SetState(w1, w2) must equal the Split child by value")
	}
	for i := 0; i < 50; i++ {
		if a, b := child.Uint64(), manual.Uint64(); a != b {
			t.Fatalf("draw %d: split child %#x, manual child %#x", i, a, b)
		}
	}
}

// Reseed and New must leave the same state, compared by value.
func TestStateAfterReseed(t *testing.T) {
	a := New(123)
	b := New(1)
	b.Reseed(123)
	if *a != *b {
		t.Fatal("New(123) and Reseed(123) must hold the same state")
	}
}
