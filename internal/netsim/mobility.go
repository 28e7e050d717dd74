package netsim

import (
	"math"

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
// at their targets.
func newWaypointWalk(n int, radius, step float64, src *simrand.Source) *waypointWalk {
	w := &waypointWalk{radius: radius, step: step, src: src,
		waypoints: make([]Position, n)}
	for i := range w.waypoints {
		w.waypoints[i] = w.draw()
	}
	return w
}

func (w *waypointWalk) draw() Position {
	rad := w.radius * math.Sqrt(w.src.Float64())
	th := 2 * math.Pi * w.src.Float64()
	return Position{X: rad * math.Cos(th), Y: rad * math.Sin(th)}
}

// advance moves every tag one step toward its waypoint, drawing a new
// waypoint on arrival. Tags are visited in index order; the only draws
// are the redraws, and whether a tag redraws is itself a deterministic
// function of the seeded history, so the walk stays reproducible.
// Waypoints lie inside the deployment disc, so positions that start
// inside it never leave (and grid corners that start outside converge
// into it).
func (w *waypointWalk) advance(pos []Position) {
	for i := range pos {
		dx := w.waypoints[i].X - pos[i].X
		dy := w.waypoints[i].Y - pos[i].Y
		d := math.Hypot(dx, dy)
		if d <= w.step {
			pos[i] = w.waypoints[i]
			w.waypoints[i] = w.draw()
			continue
		}
		pos[i].X += dx / d * w.step
		pos[i].Y += dy / d * w.step
	}
}
