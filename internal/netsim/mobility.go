package netsim

import (
	"math"
	"math/bits"

	"repro/internal/simrand"
)

// Mobility model names.
const (
	// MobilityNone is a static deployment (default).
	MobilityNone = "none"
	// MobilityWaypoint drifts each tag toward a private waypoint drawn
	// uniformly in the deployment disc, redrawing the waypoint on
	// arrival — the classic random-waypoint model, discretised to one
	// step per epoch.
	MobilityWaypoint = "waypoint"
)

// MobilitySpec configures optional tag motion. The zero value is a
// static deployment. When enabled, tag positions advance once per epoch
// and every tag's forward chunk-loss probability and feedback BER are
// re-derived from the new geometry exactly as Run derives them at
// placement time; under multi-reader scenarios tags also re-associate
// with the strongest carrier, so motion produces handovers.
type MobilitySpec struct {
	// Model is MobilityNone (default) or MobilityWaypoint.
	Model string `json:"model"`
	// StepM is the distance a tag moves per epoch in metres (default
	// RadiusM/20).
	StepM float64 `json:"step_m"`
	// EpochRounds is the number of inventory rounds per epoch (default
	// 4). The epoch is also the TDM reader-rotation period.
	EpochRounds int `json:"epoch_rounds"`
}

func (m MobilitySpec) enabled() bool { return m.Model == MobilityWaypoint }

// waypointWalk is the engine's random-waypoint state: one target per
// tag, all randomness from a dedicated source so the walk is a fixed
// function of the run seed.
type waypointWalk struct {
	radius    float64
	step      float64
	waypoints []Position
	src       *simrand.Source
}

// newWaypointWalk draws every tag's initial waypoint up front, in tag
// index order, so the draw sequence never depends on when tags arrive
// at their targets. The waypoints are left as drawDiscPolar's polar
// pairs: the engine's init phase converts them in place (polarToXY).
func newWaypointWalk(n int, radius, step float64, src *simrand.Source) *waypointWalk {
	w := &waypointWalk{radius: radius, step: step, src: src,
		waypoints: make([]Position, n)}
	drawDiscPolar(w.waypoints, radius, src)
	return w
}

// draw draws one new waypoint, converted.
func (w *waypointWalk) draw() Position {
	var p [1]Position
	drawDiscPolar(p[:], w.radius, w.src)
	polarToXY(p[:])
	return p[0]
}

// move steps tags [lo, hi) one step toward their waypoints. A tag
// within one step lands on its waypoint and is marked in arrived (bit
// i) for redraw; the others' bits are cleared. It draws nothing, so
// tag ranges that start on a word boundary move in parallel.
// Waypoints lie inside the deployment disc, so positions that start
// inside it never leave (and grid corners that start outside converge
// into it).
//
//fdlint:noalloc
func (w *waypointWalk) move(pos []Position, lo, hi int, arrived []uint64) {
	for i := lo; i < hi; i++ {
		if i&63 == 0 {
			arrived[i>>6] = 0
		}
		dx := w.waypoints[i].X - pos[i].X
		dy := w.waypoints[i].Y - pos[i].Y
		d := math.Hypot(dx, dy)
		if d <= w.step {
			pos[i] = w.waypoints[i]
			arrived[i>>6] |= 1 << (i & 63)
			continue
		}
		pos[i].X += dx / d * w.step
		pos[i].Y += dy / d * w.step
	}
}

// redraw draws a new waypoint for every tag move marked arrived, in tag
// index order: the only draws of an epoch's step, and whether a tag
// redraws is itself a deterministic function of the seeded history, so
// the walk stays reproducible.
//
//fdlint:noalloc
func (w *waypointWalk) redraw(arrived []uint64) {
	for k, word := range arrived {
		for word != 0 {
			i := k<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			w.waypoints[i] = w.draw()
		}
	}
}
