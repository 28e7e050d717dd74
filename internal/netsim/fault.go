package netsim

// Deterministic fault injection: a scenario can declare reader outages
// with recovery (tags re-associate to the strongest surviving
// carrier), interference bursts that spike a cell's chunk-loss
// probability, and tag churn (tags leave with their backlog and
// return later) — either as explicit scheduled events or as stochastic
// hazards drawn from a dedicated stream.
//
// The fault stream is hashed off the run seed (the fadeSeed pattern),
// NOT split from the engine's root tree, so enabling faults never
// shifts the streams a fault-free scenario draws. All fault state
// transitions happen serially at the top of each round on the
// dispatching goroutine, before any parallel phase reads them; the
// hazard draws are state-independent (one draw per enabled hazard per
// reader or tag per round, consumed whether or not the event fires),
// so the stream position is a pure function of the round index and
// congestion collapse experiments replay exactly.

import (
	"repro/internal/simrand"
)

// Fault event kinds for FaultEvent.Kind.
const (
	// FaultReaderOutage takes a reader's carrier down for Rounds
	// rounds: its cell opens no windows, its carrier stops harvesting
	// and interfering, and its tags re-associate to the strongest
	// surviving reader until it recovers.
	FaultReaderOutage = "reader-outage"
	// FaultInterference spikes the chunk-loss probability of every
	// frame a reader's cell carries by LossProb for Rounds rounds.
	FaultInterference = "interference"
)

// FaultEvent is one explicitly scheduled fault.
type FaultEvent struct {
	// Round is the 1-based round the event starts.
	Round int `json:"round"`
	// Kind is FaultReaderOutage or FaultInterference.
	Kind string `json:"kind"`
	// Reader indexes the affected reader in placement order.
	Reader int `json:"reader"`
	// Rounds is the event duration (defaults to the spec's duration
	// for the kind).
	Rounds int `json:"rounds,omitempty"`
	// LossProb is the extra chunk-loss probability an interference
	// burst composes into the cell (defaults to
	// InterferenceLossProb).
	LossProb float64 `json:"loss_prob,omitempty"`
}

// FaultSpec configures the fault-injection layer of a Scenario. The
// zero value disables it entirely — byte-for-byte the fault-free
// engine. Explicit Events fire at fixed rounds; the *Rate knobs add
// stochastic hazards per reader (outage, interference) or per tag
// (churn) per round, drawn from a seed-derived stream so fault
// sequences are reproducible experiments, not flakes.
type FaultSpec struct {
	// Events fire deterministically at their configured rounds.
	Events []FaultEvent `json:"events,omitempty"`
	// OutageRate is the per-reader per-round probability of a carrier
	// outage lasting ~OutageRounds rounds (default duration 8).
	OutageRate   float64 `json:"outage_rate,omitempty"`
	OutageRounds int     `json:"outage_rounds,omitempty"`
	// InterferenceRate is the per-reader per-round probability of an
	// interference burst of ~InterferenceRounds rounds (default 4)
	// spiking chunk loss by InterferenceLossProb (default 0.5).
	InterferenceRate     float64 `json:"interference_rate,omitempty"`
	InterferenceRounds   int     `json:"interference_rounds,omitempty"`
	InterferenceLossProb float64 `json:"interference_loss_prob,omitempty"`
	// ChurnRate is the per-tag per-round probability of the tag
	// leaving for ~ChurnRounds rounds (default 16), taking its queued
	// backlog with it (counted as drops).
	ChurnRate   float64 `json:"churn_rate,omitempty"`
	ChurnRounds int     `json:"churn_rounds,omitempty"`
}

func (f FaultSpec) enabled() bool {
	return len(f.Events) > 0 || f.OutageRate > 0 || f.InterferenceRate > 0 || f.ChurnRate > 0
}

// faultSeed derives the fault stream seed as a pure hash of the run
// seed — deliberately outside the engine's split tree, so enabling
// faults never shifts any stream the fault-free engine draws.
func faultSeed(seed uint64) uint64 {
	return simrand.Mix64(simrand.Mix64(seed ^ 0x66616c74)) // "falt"
}

// faultState tracks the live fault condition: per-reader availability
// and interference, per-tag churn dormancy, and the hotspot counters
// that drain into ReaderStats. Mutated only by step (serial, between
// rounds); the parallel phases read it.
type faultState struct {
	spec   FaultSpec
	events []FaultEvent // sorted by round (stable), consumed via evIdx
	evIdx  int

	down      []bool
	downUntil []int32
	// interfUntil == 0 means no burst; cellLoss is the per-round view
	// the frame paths compose into their chunk-loss probability.
	interfUntil []int32
	interfLoss  []float64
	cellLoss    []float64

	dormant []bool
	wakeAt  []int32

	// anyUp gates the association mask: when every reader is down the
	// mask is ignored (association needs a carrier to point at; the
	// cells stay closed regardless).
	anyUp bool

	// Per-reader hotspot counters, drained into ReaderStats.
	outageRounds []int32
	interfRounds []int32
}

func newFaultState(spec FaultSpec, tags, readers int) *faultState {
	f := &faultState{
		spec:         spec,
		down:         make([]bool, readers),
		downUntil:    make([]int32, readers),
		interfUntil:  make([]int32, readers),
		interfLoss:   make([]float64, readers),
		cellLoss:     make([]float64, readers),
		dormant:      make([]bool, tags),
		wakeAt:       make([]int32, tags),
		anyUp:        true,
		outageRounds: make([]int32, readers),
		interfRounds: make([]int32, readers),
	}
	if len(spec.Events) > 0 {
		f.events = append([]FaultEvent(nil), spec.Events...)
		// Insertion sort by round, stable in declaration order — the
		// event list is small and this avoids a sort.Slice closure.
		for i := 1; i < len(f.events); i++ {
			for j := i; j > 0 && f.events[j].Round < f.events[j-1].Round; j-- {
				f.events[j], f.events[j-1] = f.events[j-1], f.events[j]
			}
		}
	}
	return f
}

// step advances the fault condition to the given (0-based) round:
// recoveries expire, explicit events fire, stochastic hazards draw,
// churned tags flush their backlog, and the per-round cell-loss view
// refreshes. Any availability change re-derives links so tags
// re-associate to the strongest surviving carrier. src is the serial
// fault stream owned by the run loop; every enabled hazard consumes
// its draws unconditionally, so the stream position never depends on
// prior fault state. Part of the round loop guarded by
// TestRoundLoopAllocFree.
func (f *faultState) step(e *engine, round int, src *simrand.Source) {
	r1 := round + 1 // 1-based, matching FaultEvent.Round
	sp := &f.spec
	changed := false

	for r := range f.down {
		if f.down[r] && r1 >= int(f.downUntil[r]) {
			f.down[r] = false
			changed = true
		}
		if f.interfUntil[r] != 0 && r1 >= int(f.interfUntil[r]) {
			f.interfUntil[r] = 0
			f.interfLoss[r] = 0
		}
	}

	for f.evIdx < len(f.events) && f.events[f.evIdx].Round == r1 {
		ev := &f.events[f.evIdx]
		f.evIdx++
		switch ev.Kind {
		case FaultReaderOutage:
			if !f.down[ev.Reader] {
				f.down[ev.Reader] = true
				changed = true
			}
			f.downUntil[ev.Reader] = int32(r1 + ev.Rounds)
		case FaultInterference:
			f.interfUntil[ev.Reader] = int32(r1 + ev.Rounds)
			f.interfLoss[ev.Reader] = ev.LossProb
		}
	}

	for r := range f.down {
		if sp.OutageRate > 0 {
			hit := src.Bool(sp.OutageRate)
			dur := 1
			if sp.OutageRounds > 1 {
				dur += src.Poisson(float64(sp.OutageRounds - 1))
			}
			if hit && !f.down[r] {
				f.down[r] = true
				f.downUntil[r] = int32(r1 + dur)
				changed = true
			}
		}
		if sp.InterferenceRate > 0 {
			hit := src.Bool(sp.InterferenceRate)
			dur := 1
			if sp.InterferenceRounds > 1 {
				dur += src.Poisson(float64(sp.InterferenceRounds - 1))
			}
			if hit && f.interfUntil[r] == 0 {
				f.interfUntil[r] = int32(r1 + dur)
				f.interfLoss[r] = sp.InterferenceLossProb
			}
		}
	}

	if sp.ChurnRate > 0 {
		t := &e.tags
		for i := 0; i < t.len(); i++ {
			if f.dormant[i] && r1 >= int(f.wakeAt[i]) {
				f.dormant[i] = false
			}
			hit := src.Bool(sp.ChurnRate)
			dur := 1
			if sp.ChurnRounds > 1 {
				dur += src.Poisson(float64(sp.ChurnRounds - 1))
			}
			if hit && !f.dormant[i] && t.alive[i] {
				f.dormant[i] = true
				f.wakeAt[i] = int32(r1 + dur)
				// The departing tag carries its backlog away: queued and
				// parked frames are lost to the census.
				lost := t.queue[i]
				t.queue[i] = 0
				if c := e.cong; c != nil {
					lost += c.retxQ[i]
					c.retxQ[i] = 0
					c.inServ[i] = false
					c.backoff[i] = 0
					c.pace[i] = 0
				}
				if lost > 0 {
					t.stats[i].FramesDropped += int(lost)
				}
			}
		}
	}

	up := 0
	for r := range f.down {
		f.cellLoss[r] = 0
		if f.down[r] {
			f.outageRounds[r]++
			continue
		}
		up++
		if f.interfUntil[r] != 0 {
			f.cellLoss[r] = f.interfLoss[r]
			f.interfRounds[r]++
		}
	}
	f.anyUp = up > 0

	if changed {
		e.deriveLinks()
	}
}

// mask returns the association exclusion mask, or nil when every
// reader is down (association falls back to ignoring outages — the
// cells stay closed regardless, so the pointer is cosmetic).
func (f *faultState) mask() []bool {
	if !f.anyUp {
		return nil
	}
	return f.down
}
