package netsvc

import (
	"testing"
	"time"
)

// Runs builds the GET /runs listing by harvesting and sorting the
// registry map's keys: the listing must come back strictly ascending
// by run ID and byte-identical across calls, however the IDs were
// inserted. Ranging the map into the output would make both
// assertions flaky — Go randomizes map iteration per range statement.
// This test is the only gate on that order.
func TestRunsListingSortedAndStable(t *testing.T) {
	s := New(Config{})
	// Insert in a scrambled order: a multiplicative stride mod 29 visits
	// 1..28 in a fixed but thoroughly shuffled sequence.
	for i := 1; i < 29; i++ {
		id := uint64(i*17%29 + 1)
		s.runs[id] = &runInfo{
			id: id, name: "scramble", seed: id,
			maxRounds: 100, started: time.Now(),
		}
	}
	first := s.Runs()
	if len(first) != 28 {
		t.Fatalf("listing has %d entries, want 28", len(first))
	}
	for i := 1; i < len(first); i++ {
		if first[i].ID <= first[i-1].ID {
			t.Fatalf("listing out of order: id %d at %d after id %d", first[i].ID, i, first[i-1].ID)
		}
	}
	for trial := 0; trial < 20; trial++ {
		again := s.Runs()
		for i := range first {
			if again[i].ID != first[i].ID {
				t.Fatalf("listing order unstable at %d: %d != %d (map iteration order leaking)",
					i, again[i].ID, first[i].ID)
			}
		}
	}
}
