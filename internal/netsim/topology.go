package netsim

import (
	"fmt"
	"math"

	"repro/internal/simrand"
)

// Topology names the deployment geometries a Scenario can request. The
// reader sits at the origin; tags are placed around it.
const (
	// TopologyGrid lays tags on a square lattice spanning the deployment
	// square [-R, R]^2, the densest regular arrangement a warehouse
	// shelf survey produces.
	TopologyGrid = "grid"
	// TopologyUniformDisc scatters tags uniformly over the disc of
	// radius R (area-uniform, so the edge holds most of the population).
	TopologyUniformDisc = "uniform-disc"
	// TopologyClustered drops cluster centres uniformly in the disc and
	// scatters tags around them with a Gaussian spread — pallets of
	// tagged goods.
	TopologyClustered = "clustered"
	// TopologyCells scatters tags around the reader positions
	// round-robin with a Gaussian spread (ClusterSpreadM) — the
	// multi-reader analogue of clustered, one pallet field per cell.
	// It requires at least one anchor (the scenario's readers).
	TopologyCells = "cells"
)

// Position is a tag location in metres, reader at the origin.
type Position struct {
	X, Y float64
}

// Distance returns the range from the reader (origin).
func (p Position) Distance() float64 { return math.Hypot(p.X, p.Y) }

// PlaceTags returns n deterministic positions for the named topology.
// Randomised topologies draw only from src, so a fixed seed fixes the
// layout. The grid topology is fully deterministic and ignores src.
// anchors supplies the reader positions for TopologyCells; the other
// topologies ignore it.
func PlaceTags(topology string, n int, radiusM float64, clusters int, spreadM float64, anchors []Position, src *simrand.Source) ([]Position, error) {
	if err := checkPlacement(topology, n, radiusM, anchors); err != nil {
		return nil, err
	}
	out := make([]Position, n)
	drawPlacement(out, topology, radiusM, clusters, spreadM, anchors, src)
	if polarTopology(topology) {
		polarToXY(out)
	}
	return out, nil
}

// polarTopology reports whether drawPlacement leaves the topology's
// positions as polar pairs for polarToXY.
func polarTopology(topology string) bool { return topology == TopologyUniformDisc }

// checkPlacement rejects what PlaceTags cannot place.
func checkPlacement(topology string, n int, radiusM float64, anchors []Position) error {
	if n <= 0 {
		return fmt.Errorf("netsim: tag count %d must be positive", n)
	}
	if radiusM <= 0 {
		return fmt.Errorf("netsim: radius %g must be positive", radiusM)
	}
	switch topology {
	case TopologyGrid, TopologyUniformDisc, TopologyClustered:
	case TopologyCells:
		if len(anchors) == 0 {
			return fmt.Errorf("netsim: topology %q needs at least one reader anchor", TopologyCells)
		}
	default:
		return fmt.Errorf("netsim: unknown topology %q (want %s, %s, %s or %s)",
			topology, TopologyGrid, TopologyUniformDisc, TopologyClustered, TopologyCells)
	}
	return nil
}

// drawPlacement fills out with a checked topology's positions, drawing
// from src in tag order. The uniform disc leaves each tag's polar
// (radius, angle) in its slot (polarTopology): the draws are serial,
// but the Sincos of a drawn angle is not, so the engine converts them
// with polarToXY in its sharded init.
func drawPlacement(out []Position, topology string, radiusM float64, clusters int, spreadM float64, anchors []Position, src *simrand.Source) {
	if spreadM <= 0 {
		spreadM = radiusM / 8
	}
	switch topology {
	case TopologyGrid:
		placeGrid(out, radiusM)
	case TopologyUniformDisc:
		drawDiscPolar(out, radiusM, src)
	case TopologyClustered:
		if clusters <= 0 {
			clusters = 3
		}
		placeClustered(out, radiusM, clusters, spreadM, src)
	case TopologyCells:
		placeAnchored(out, anchors, spreadM, src)
	}
}

// placeGrid fills a ceil(sqrt(n)) lattice over [-R, R]^2 row-major. A
// cell landing on the origin is harmless: the path loss model clamps
// distances below its MinDistanceM.
func placeGrid(out []Position, r float64) {
	side := int(math.Ceil(math.Sqrt(float64(len(out)))))
	k := 0
	for i := 0; i < side && k < len(out); i++ {
		for j := 0; j < side && k < len(out); j++ {
			// Cell centres: side points evenly spread across [-r, r].
			x := -r + (2*r)*(float64(j)+0.5)/float64(side)
			y := -r + (2*r)*(float64(i)+0.5)/float64(side)
			out[k] = Position{X: x, Y: y}
			k++
		}
	}
}

// drawDiscPolar draws area-uniform points in the disc of radius r, in
// order, as polar pairs: X holds the radius, Y the angle.
func drawDiscPolar(out []Position, r float64, src *simrand.Source) {
	for i := range out {
		// Area-uniform: radius ~ r*sqrt(u).
		rad := r * math.Sqrt(src.Float64())
		th := 2 * math.Pi * src.Float64()
		out[i] = Position{X: rad, Y: th}
	}
}

// polarToXY converts drawDiscPolar's pairs to Cartesian positions in
// place.
//
//fdlint:noalloc
func polarToXY(p []Position) {
	for i, v := range p {
		// One argument reduction for both; bit for bit Cos and Sin
		// (TestSincosMatchesCosSin).
		sin, cos := math.Sincos(v.Y)
		p[i] = Position{X: v.X * cos, Y: v.X * sin}
	}
}

func placeClustered(out []Position, r float64, clusters int, spread float64, src *simrand.Source) {
	centres := make([]Position, clusters)
	drawDiscPolar(centres, r*0.75, src)
	polarToXY(centres)
	for i := range out {
		c := centres[i%clusters]
		p := Position{
			X: c.X + src.Gaussian(0, spread),
			Y: c.Y + src.Gaussian(0, spread),
		}
		// Keep the deployment inside the disc so the radius parameter
		// stays meaningful for range experiments.
		if d := p.Distance(); d > r {
			scale := r / d
			p.X *= scale
			p.Y *= scale
		}
		out[i] = p
	}
}

// placeAnchored scatters tags round-robin around fixed anchor points
// (reader positions) with a Gaussian spread. Unlike placeClustered the
// centres are not random, so the deployment mirrors the reader cells
// exactly.
func placeAnchored(out []Position, anchors []Position, spread float64, src *simrand.Source) {
	for i := range out {
		c := anchors[i%len(anchors)]
		out[i] = Position{
			X: c.X + src.Gaussian(0, spread),
			Y: c.Y + src.Gaussian(0, spread),
		}
	}
}
