package netsim

// Phase accounting: where a run's wall time goes, phase by phase.
//
// A PhaseTimes is the engine's second roundObserver. Besides the
// per-round hook it has a per-phase one: the engine switches the
// accumulator to each phase as the phase begins (enter), so every
// nanosecond between the run's first and last switch lands on exactly
// one phase and the phase sums add up to the run. pool.dispatch
// switches to the parallel phase it runs and back to the phase that
// called it, and each worker adds its own busy time per phase, which
// shows load imbalance across the pool.
//
// The clock is injected (NewPhaseTimes), so the engine itself never
// reads a wall clock. A batch run has no accumulator (engine.acc is
// nil, and every hook is a nil-receiver no-op); nothing it records
// enters NetResult or the stream. The accumulator's storage is sized
// once at the start of the run, so the round loop stays allocation-free
// with it attached (TestRoundLoopAllocFree's phased row).

import (
	"context"
	"fmt"
	"io"
	"strings"
)

// The serial phases, numbered after the parallel ones (pool.go). Only
// the parallel phases are ever dispatched.
const (
	// phaseEngine is newEngine's serial part: reader placement, the
	// per-reader tables, the pool start and the lanes' priming.
	phaseEngine phaseKind = numParallelPhases + iota
	// phaseAssoc rebuilds the CSR reader-cell index after a derive.
	phaseAssoc
	// phaseOpen is openRound's serial transitions: the waypoint
	// arrivals' redraws, the TDM hand-over, the fault step and the
	// cell list.
	phaseOpen
	// phaseArrive draws the open-loop arrivals.
	phaseArrive
	// phaseDeadline drops expired frames under the deadline policy.
	phaseDeadline
	// phaseSlots is the serial part of drawSlots: every contender's
	// slot draw and the slot classes.
	phaseSlots
	// phaseReduce folds the served windows into the round's clock.
	phaseReduce
	// phaseObserve runs the round observer and resets the round's
	// transmit columns.
	phaseObserve
	// phaseFold is drain's serial part: the per-reader rows and the
	// order-dependent float sums.
	phaseFold
	numPhases
)

// phaseNames labels the phase table's rows, indexed by phaseKind.
var phaseNames = [numPhases]string{
	phaseGrants:   "grants",
	phaseServe:    "serve",
	phaseInit:     "init",
	phaseDerive:   "derive",
	phaseSettle:   "settle",
	phaseDrain:    "drain",
	phaseCong:     "cong",
	phaseSetup:    "setup",
	phaseContend:  "contend",
	phaseWalk:     "walk",
	phaseEngine:   "engine",
	phaseAssoc:    "assoc",
	phaseOpen:     "open",
	phaseArrive:   "arrive",
	phaseDeadline: "deadline",
	phaseSlots:    "slots",
	phaseReduce:   "reduce",
	phaseObserve:  "observe",
	phaseFold:     "fold",
}

// phaseOrder lists the phases in the order a run meets them: the
// table's row order.
var phaseOrder = [numPhases]phaseKind{
	phaseEngine, phaseSetup, phaseInit, phaseDerive, phaseAssoc,
	phaseOpen, phaseWalk, phaseArrive, phaseDeadline, phaseCong,
	phaseContend, phaseSlots, phaseServe, phaseGrants, phaseReduce,
	phaseSettle, phaseObserve, phaseDrain, phaseFold,
}

// PhaseTimes accumulates one run's wall time per engine phase: the
// nanoseconds spent in it, how often it was entered (for a parallel
// phase, its dispatches), and each worker's busy time in it. Attach
// one to a run with RunPhased; use a fresh one, or reuse it, per run.
type PhaseTimes struct {
	clock func() int64

	cur   phaseKind
	since int64
	ns    [numPhases]int64
	calls [numPhases]int64
	// busy[w][ph] is worker w's time inside runPhase for phase ph.
	busy   [][numPhases]int64
	rounds int
}

// NewPhaseTimes returns an accumulator reading clock, which must
// return monotonic nanoseconds and be safe to call from every engine
// worker at once.
func NewPhaseTimes(clock func() int64) *PhaseTimes {
	return &PhaseTimes{clock: clock}
}

// RunPhased runs the scenario like RunParallel and accumulates its
// phase times into p. The result is byte-identical to RunParallel's.
func RunPhased(sc Scenario, seed uint64, workers int, p *PhaseTimes) (*NetResult, error) {
	if p == nil || p.clock == nil {
		return nil, fmt.Errorf("netsim: RunPhased needs a PhaseTimes with a clock")
	}
	return run(context.Background(), sc, seed, workers, p)
}

// begin resets the accumulator for a run over the given worker count
// and opens its first phase.
func (p *PhaseTimes) begin(workers int, ph phaseKind) {
	if p == nil {
		return
	}
	if len(p.busy) != workers {
		p.busy = make([][numPhases]int64, workers)
	} else {
		clear(p.busy)
	}
	p.ns, p.calls, p.rounds = [numPhases]int64{}, [numPhases]int64{}, 0
	p.cur, p.since = ph, p.clock()
	p.calls[ph]++
}

// enter charges the time since the last switch to the current phase,
// makes ph current and counts the entry. It returns the phase it left,
// for resume.
func (p *PhaseTimes) enter(ph phaseKind) phaseKind {
	if p == nil {
		return ph
	}
	prev := p.resume(ph)
	p.calls[ph]++
	return prev
}

// resume switches back to ph without counting an entry.
func (p *PhaseTimes) resume(ph phaseKind) phaseKind {
	if p == nil {
		return ph
	}
	now := p.clock()
	p.ns[p.cur] += now - p.since
	prev := p.cur
	p.cur, p.since = ph, now
	return prev
}

// end charges the time since the last switch to the last phase.
func (p *PhaseTimes) end() {
	if p != nil {
		p.resume(p.cur)
	}
}

// now reads the clock for a worker's busy time (0 without an
// accumulator).
func (p *PhaseTimes) now() int64 {
	if p == nil {
		return 0
	}
	return p.clock()
}

// init and observe make PhaseTimes a roundObserver: the per-round hook
// counts the rounds the table covers.
func (p *PhaseTimes) init(*engine) {}

func (p *PhaseTimes) observe(*engine, *NetResult, int) error {
	p.rounds++
	return nil
}

// total returns the summed phase time in nanoseconds.
func (p *PhaseTimes) total() int64 {
	var sum int64
	for _, ns := range p.ns {
		sum += ns
	}
	return sum
}

// WriteTable writes the phase table: per phase its milliseconds, share
// of the summed time, entries, and for the parallel phases each
// worker's busy milliseconds and the busiest worker's time over the
// mean (1.00 is a perfectly balanced phase). Every phase is listed,
// entered or not, so the table's shape does not depend on the
// scenario. wallNS, when positive, is the caller's own measurement of
// the run, and the last line says how much of it the phases cover.
func (p *PhaseTimes) WriteTable(w io.Writer, wallNS int64) error {
	total := p.total()
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %10s %6s %6s  %s\n", "phase", "ms", "share", "calls", "worker busy ms (max/mean)")
	for _, ph := range phaseOrder {
		name := phaseNames[ph]
		share := 0.0
		if total > 0 {
			share = 100 * float64(p.ns[ph]) / float64(total)
		}
		fmt.Fprintf(&b, "%-9s %10.3f %5.1f%% %6d", name, ms(p.ns[ph]), share, p.calls[ph])
		if ph < numParallelPhases && p.calls[ph] > 0 {
			var sum, peak int64
			b.WriteString(" ")
			for wi := range p.busy {
				t := p.busy[wi][ph]
				sum += t
				peak = max(peak, t)
				fmt.Fprintf(&b, " %.1f", ms(t))
			}
			if sum > 0 {
				fmt.Fprintf(&b, " (%.2f)", float64(peak)*float64(len(p.busy))/float64(sum))
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-9s %10.3f %5.1f%% %6d rounds\n", "total", ms(total), 100.0, p.rounds)
	if wallNS > 0 {
		fmt.Fprintf(&b, "phases cover %.1f%% of %.3f ms wall\n", 100*float64(total)/float64(wallNS), ms(wallNS))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
