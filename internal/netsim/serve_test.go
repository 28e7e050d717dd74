package netsim

import (
	"testing"

	"repro/internal/simrand"
)

// BenchmarkServe times the ALOHA serve phase of the million preset's
// round 0 at 2^16 tags on one worker: every singleton winner's MAC
// exchange (fading, fd rate adaptation, feedback flips) and every
// collision charge. Each iteration builds a fresh engine and runs the
// round's opening, arrivals and slot draws with the timer stopped,
// splitting the streams in run's order, so only the serve dispatch is
// timed.
func BenchmarkServe(b *testing.B) {
	sc, err := Preset("million")
	if err != nil {
		b.Fatal(err)
	}
	sc.Tags = 1 << 16
	sc.ApplyDefaults()
	if err := sc.Validate(); err != nil {
		b.Fatal(err)
	}
	const seed = 1
	for range b.N {
		b.StopTimer()
		root := simrand.New(seed)
		placeSrc, trafficSrc, slotSrc, mobilitySrc := root.Split(), root.Split(), root.Split(), root.Split()
		e, err := newEngine(sc, seed, 1, root, placeSrc, mobilitySrc, nil)
		if err != nil {
			b.Fatal(err)
		}
		e.openRound(nil)
		e.arrive(trafficSrc)
		e.drawSlots(slotSrc)
		b.StartTimer()
		e.pool.dispatch(phaseServe)
		b.StopTimer()
		e.pool.stop()
	}
}
