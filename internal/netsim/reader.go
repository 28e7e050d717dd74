package netsim

import (
	"math"
)

// Reader placement names: how a multi-reader deployment arranges its
// readers around the origin. A single reader always sits at the origin
// regardless of placement.
const (
	// ReaderGrid lays readers on a centred square lattice with pitch
	// SpacingM — the cell pattern of a hotspot-localization deployment.
	ReaderGrid = "grid"
	// ReaderLine spaces readers along the x axis, SpacingM apart —
	// readers down a warehouse aisle.
	ReaderLine = "line"
	// ReaderRing places readers on a circle of radius SpacingM.
	ReaderRing = "ring"
)

// Reader scheduling names: how concurrently active readers share the
// spectrum.
const (
	// SchedulingIndependent runs every reader every round on its own
	// channel. Channel isolation is imperfect: each tag's noise floor
	// gains the neighbouring carriers attenuated by IsolationdB, so
	// dense reader deployments trade parallelism against interference.
	SchedulingIndependent = "independent"
	// SchedulingTDM activates one reader per epoch, round-robin. Tags
	// of inactive readers hold their traffic (and harvest only the
	// distant active carrier), but nobody interferes with anybody.
	SchedulingTDM = "tdm"
)

// ReaderSpec configures the reader population of a Scenario. The zero
// value means one reader at the origin — exactly the single-reader
// engine of earlier revisions.
type ReaderSpec struct {
	// Count is the number of readers (default 1).
	Count int `json:"count"`
	// Placement is ReaderGrid (default), ReaderLine or ReaderRing.
	Placement string `json:"placement"`
	// SpacingM is the inter-reader pitch / ring radius in metres
	// (default RadiusM).
	SpacingM float64 `json:"spacing_m"`
	// Scheduling is SchedulingIndependent (default) or SchedulingTDM.
	Scheduling string `json:"scheduling"`
	// IsolationdB is the inter-channel rejection under independent
	// scheduling (default 20 dB): neighbouring carriers reach a tag's
	// noise floor attenuated by this much. Zero selects the default;
	// any negative value requests genuine 0 dB isolation (co-channel
	// readers, full leakage) — negative rejection is not physical, so
	// the sign is free to act as the explicit-zero sentinel, mirroring
	// ReqSNRZero.
	IsolationdB float64 `json:"isolation_db"`
	// Policy selects how each reader admits contenders into its window:
	// PolicyAloha (default) lets every backlogged tag draw a contention
	// slot; PolicyFIFO, PolicyPropFair and PolicyDeadline switch to
	// reader-driven polling — up to ContentionWindow collision-free
	// grants per round, ordered by the policy metric (see
	// congestion.go).
	Policy string `json:"policy,omitempty"`
	// DeadlineRounds is PolicyDeadline's per-frame service deadline
	// (default 16 rounds): a head-of-line frame older than this is
	// dropped instead of served.
	DeadlineRounds int `json:"deadline_rounds,omitempty"`
}

// PlaceReaders returns the deterministic reader positions for a spec
// (after defaults). Placement involves no randomness, so reader geometry
// is a pure function of the scenario.
func PlaceReaders(spec ReaderSpec) []Position {
	n := spec.Count
	if n <= 0 {
		n = 1
	}
	if n == 1 {
		return []Position{{}}
	}
	out := make([]Position, 0, n)
	switch spec.Placement {
	case ReaderLine:
		for i := 0; i < n; i++ {
			out = append(out, Position{X: (float64(i) - float64(n-1)/2) * spec.SpacingM})
		}
	case ReaderRing:
		for i := 0; i < n; i++ {
			th := 2 * math.Pi * float64(i) / float64(n)
			out = append(out, Position{X: spec.SpacingM * math.Cos(th), Y: spec.SpacingM * math.Sin(th)})
		}
	default: // ReaderGrid
		side := int(math.Ceil(math.Sqrt(float64(n))))
		half := float64(side-1) / 2
		for i := 0; i < side && len(out) < n; i++ {
			for j := 0; j < side && len(out) < n; j++ {
				out = append(out, Position{
					X: (float64(j) - half) * spec.SpacingM,
					Y: (float64(i) - half) * spec.SpacingM,
				})
			}
		}
	}
	return out
}

// ReaderStats reports one reader's outcome inside a NetResult.
type ReaderStats struct {
	// ID indexes the reader in placement order.
	ID int
	// X, Y locate the reader.
	X, Y float64
	// AssociatedTags counts the tags served by this reader at the final
	// epoch (association follows the strongest carrier, so mobile tags
	// can hand over between epochs).
	AssociatedTags int
	// FramesDelivered counts frames this reader carried.
	FramesDelivered int
	// SingletonSlots / CollisionSlots classify this reader's non-idle
	// contention slots.
	SingletonSlots, CollisionSlots int64
	// QueueDepth is the residual backlog (queued plus parked-for-retx
	// frames) of this reader's associated tags when the run ended — a
	// hotspot indicator: nonzero depth under closed-loop traffic means
	// the cell never drained.
	QueueDepth int64
	// SaturationOnset is the 1-based round at which this reader's cell
	// first saturated (non-idle slot occupancy ≥ 95%); 0 if it never
	// did. RecoveryRound is the first round AFTER onset at which
	// occupancy fell back to ≤ 50%; 0 if it never recovered. The
	// hysteresis gap keeps boundary flapping out of both counters.
	SaturationOnset, RecoveryRound int
	// OutageRounds / InterferenceRounds count the rounds this reader
	// spent down or under an interference burst (fault injection).
	OutageRounds, InterferenceRounds int
	// Timeouts counts congestion RTO expiries charged to this reader's
	// associated tags (closed-loop runs with congestion enabled).
	Timeouts int64
}
