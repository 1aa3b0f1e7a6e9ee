// Package route implements the course's Week-7 routing algorithms and
// software Project 4: a two-layer grid maze router with preferred
// layer directions, via and non-preferred-direction penalties,
// obstacles, configurable net ordering and rip-up-and-reroute.
// Layer 0 prefers horizontal wires and layer 1 vertical, as in the
// course's project spec. The project's nets have two pins; RouteAll
// also takes k-pin nets, growing each as a tree: the A–B trunk, then
// one multi-source search per further pin from every cell of the tree
// so far. Rip-up works on whole trees. Beside each plain search's
// wavefront a breadth-first flood grows out from the target, so a
// search whose target is walled off gives up once the target's region
// runs out instead of expanding all it can reach.
package route

import "fmt"

// Layers is the number of routing layers.
const Layers = 2

// Point is one routing-grid vertex.
type Point struct {
	X, Y, L int
}

// Cost parameters for the maze expansion.
type Cost struct {
	Unit    int // preferred-direction step (default 1)
	NonPref int // extra penalty for a step against the layer's preferred direction
	Via     int // layer-change cost
}

// DefaultCost matches the course project's standard settings.
func DefaultCost() Cost { return Cost{Unit: 1, NonPref: 2, Via: 10} }

// Grid is the routing fabric: W×H cells on each of two layers, with
// per-cell blockage (obstacles and previously routed wires).
type Grid struct {
	W, H    int
	Cost    Cost
	blocked [Layers][]bool
}

// NewGrid returns an empty grid with the given cost model.
func NewGrid(w, h int, cost Cost) *Grid {
	if cost.Unit <= 0 {
		cost.Unit = 1
	}
	g := &Grid{W: w, H: h, Cost: cost}
	for l := 0; l < Layers; l++ {
		g.blocked[l] = make([]bool, w*h)
	}
	return g
}

// In reports whether the point lies on the grid.
func (g *Grid) In(p Point) bool {
	return p.X >= 0 && p.X < g.W && p.Y >= 0 && p.Y < g.H && p.L >= 0 && p.L < Layers
}

func (g *Grid) idx(p Point) int { return p.Y*g.W + p.X }

// Block marks a cell as unusable (obstacle or existing wire).
func (g *Grid) Block(p Point) {
	if !g.In(p) {
		panic(fmt.Sprintf("route: Block(%v) outside %dx%d grid", p, g.W, g.H))
	}
	g.blocked[p.L][g.idx(p)] = true
}

// Unblock clears a cell (rip-up).
func (g *Grid) Unblock(p Point) {
	if g.In(p) {
		g.blocked[p.L][g.idx(p)] = false
	}
}

// Blocked reports whether the cell is unusable.
func (g *Grid) Blocked(p Point) bool {
	return !g.In(p) || g.blocked[p.L][g.idx(p)]
}

// Clone copies the grid including blockage.
func (g *Grid) Clone() *Grid {
	c := NewGrid(g.W, g.H, g.Cost)
	for l := 0; l < Layers; l++ {
		copy(c.blocked[l], g.blocked[l])
	}
	return c
}

// StepCost returns the cost of moving from a to an adjacent b, or -1
// if the move is not a legal single step.
func (g *Grid) StepCost(a, b Point) int {
	dx, dy, dl := b.X-a.X, b.Y-a.Y, b.L-a.L
	switch {
	case dl != 0:
		if dx == 0 && dy == 0 && (dl == 1 || dl == -1) {
			return g.Cost.Via
		}
		return -1
	case dx*dx+dy*dy != 1:
		return -1
	case dx != 0: // horizontal step
		if a.L == 0 {
			return g.Cost.Unit
		}
		return g.Cost.Unit + g.Cost.NonPref
	default: // vertical step
		if a.L == 1 {
			return g.Cost.Unit
		}
		return g.Cost.Unit + g.Cost.NonPref
	}
}
