package route

import (
	"fmt"
	"sort"
)

// Multi-pin net routing: real netlists have nets with more than two
// pins. The course's project used two-pin nets; this extension routes
// k-pin nets by growing a Steiner-style tree — each remaining pin is
// connected to the nearest point of the already-routed tree, the
// standard sequential construction.

// MultiNet is a net with two or more pins.
type MultiNet struct {
	Name string
	Pins []Point
}

// Tree is a routed multi-pin net: the union of the connecting paths.
type Tree struct {
	Name  string
	Paths []Path
}

// Points returns every grid point used by the tree (deduplicated).
func (t *Tree) Points() []Point {
	seen := map[Point]bool{}
	var out []Point
	for _, p := range t.Paths {
		for _, pt := range p {
			if !seen[pt] {
				seen[pt] = true
				out = append(out, pt)
			}
		}
	}
	return out
}

// Wirelength counts wire segments over all paths.
func (t *Tree) Wirelength() int {
	n := 0
	for _, p := range t.Paths {
		n += p.Wirelength()
	}
	return n
}

// Vias counts layer changes over all paths.
func (t *Tree) Vias() int {
	n := 0
	for _, p := range t.Paths {
		n += p.Vias()
	}
	return n
}

// RouteMultiNet routes one multi-pin net on the grid. The routed tree
// is NOT marked on the grid; callers block t.Points() for subsequent
// nets. Pins are connected in order of distance to the first pin
// (a cheap Prim-like ordering).
func RouteMultiNet(g *Grid, net MultiNet, alg Algorithm) (*Tree, int, error) {
	if len(net.Pins) < 2 {
		return nil, 0, fmt.Errorf("route: net %s has %d pins, need >= 2", net.Name, len(net.Pins))
	}
	for _, p := range net.Pins {
		if !g.In(p) {
			return nil, 0, fmt.Errorf("route: net %s pin %v off grid", net.Name, p)
		}
	}
	// Order pins by Manhattan distance to pin 0.
	pins := append([]Point(nil), net.Pins...)
	d0 := func(p Point) int {
		dx, dy := p.X-pins[0].X, p.Y-pins[0].Y
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return dx + dy
	}
	sort.SliceStable(pins[1:], func(i, j int) bool { return d0(pins[1+i]) < d0(pins[1+j]) })

	tree := &Tree{Name: net.Name}
	inTree := map[Point]bool{pins[0]: true}
	expanded := 0
	work := g.Clone()
	for _, pin := range pins[1:] {
		if inTree[pin] {
			continue
		}
		// Route from this pin to the nearest tree point: run the maze
		// search from the pin toward a virtual multi-target by trying
		// the closest tree points in distance order and keeping the
		// best result. (A true multi-target wavefront would expand
		// once; at course scale per-target searches stay simple and
		// the tests pin down optimality per connection.)
		targets := make([]Point, 0, len(inTree))
		for t := range inTree {
			targets = append(targets, t)
		}
		sort.Slice(targets, func(i, j int) bool {
			di := manhattanPts(pin, targets[i])
			dj := manhattanPts(pin, targets[j])
			if di != dj {
				return di < dj
			}
			return lessPoint(targets[i], targets[j])
		})
		var best Path
		bestCost := -1
		tries := 0
		for _, tgt := range targets {
			if bestCost >= 0 && manhattanPts(pin, tgt)*work.Cost.Unit > bestCost {
				break // cannot beat the incumbent
			}
			if tries > 8 && bestCost >= 0 {
				break
			}
			tries++
			// Tree points are blocked on work; allow this target.
			path, cost, exp, err := routeAllowingTarget(work, pin, tgt, alg, inTree)
			expanded += exp
			if err != nil {
				continue
			}
			if bestCost < 0 || cost < bestCost {
				best, bestCost = path, cost
			}
		}
		if bestCost < 0 {
			return nil, expanded, fmt.Errorf("route: net %s pin %v unreachable from tree", net.Name, pin)
		}
		tree.Paths = append(tree.Paths, best)
		for _, pt := range best {
			inTree[pt] = true
			work.Block(pt) // later connections may not cross the tree except at joins
		}
	}
	return tree, expanded, nil
}

func manhattanPts(a, b Point) int {
	dx, dy := a.X-b.X, a.Y-b.Y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

func lessPoint(a, b Point) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.L < b.L
}

// routeAllowingTarget is RouteNet with the whole current tree usable
// as free landing space at the target end.
func routeAllowingTarget(g *Grid, from, to Point, alg Algorithm, tree map[Point]bool) (Path, int, int, error) {
	// Temporarily unblock the tree points adjacent to the search: we
	// simply treat tree membership as usable in a wrapped grid view by
	// unblocking the target point; since all tree points were blocked
	// on this grid, unblock them for the search and re-block after.
	var unblocked []Point
	for pt := range tree {
		if g.Blocked(pt) {
			g.Unblock(pt)
			unblocked = append(unblocked, pt)
		}
	}
	defer func() {
		for _, pt := range unblocked {
			g.Block(pt)
		}
	}()
	path, cost, exp, err := RouteNet(g, Net{Name: "seg", A: from, B: to}, alg)
	if err != nil {
		return nil, 0, exp, err
	}
	// Trim the path at its first contact with the tree (it may touch
	// the tree before the chosen target).
	for i, pt := range path {
		if tree[pt] {
			path = path[:i+1]
			cost = PathCost(g, path)
			break
		}
	}
	return path, cost, exp, nil
}

// RouteAllMulti routes a set of multi-pin nets serially, in input
// order. Every net's pins are reserved up front so no wire may cross a
// foreign pin; each routed tree is blocked for the nets that follow. It
// returns the trees plus the names of failed nets.
func RouteAllMulti(g *Grid, nets []MultiNet, alg Algorithm) (map[string]*Tree, []string) {
	// Reserve all pins.
	reserved := map[Point]bool{}
	for _, n := range nets {
		for _, p := range n.Pins {
			if g.In(p) && !g.Blocked(p) {
				g.Block(p)
				reserved[p] = true
			}
		}
	}
	out := map[string]*Tree{}
	var failed []string
	for _, n := range nets {
		t := routeOneMulti(g, n, alg, reserved)
		if t == nil {
			failed = append(failed, n.Name)
			continue
		}
		out[n.Name] = t
		for _, pt := range t.Points() {
			g.Block(pt)
		}
	}
	sort.Strings(failed)
	return out, failed
}

// routeOneMulti is one serial step of RouteAllMulti: release the
// net's own reserved pins, route, and on failure restore the
// reservation. On success the caller blocks the tree's points (all of
// the net's pins lie on the tree, so the released pins end up blocked
// again). Returns nil on failure.
func routeOneMulti(g *Grid, n MultiNet, alg Algorithm, reserved map[Point]bool) *Tree {
	var mine []Point
	for _, p := range n.Pins {
		if reserved[p] {
			g.Unblock(p)
			delete(reserved, p)
			mine = append(mine, p)
		}
	}
	restore := func() {
		for _, p := range mine {
			g.Block(p)
			reserved[p] = true
		}
	}
	// A pin buried under an obstacle or an earlier tree is fatal
	// for this net.
	for _, p := range n.Pins {
		if !g.In(p) || g.Blocked(p) {
			restore()
			return nil
		}
	}
	t, _, err := RouteMultiNet(g, n, alg)
	if err != nil {
		restore()
		return nil
	}
	return t
}
