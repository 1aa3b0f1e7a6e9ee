package route

import (
	"math/rand"
	"testing"
)

// treeCells returns the cells of net name's routed tree: its trunk
// and branches.
func treeCells(res *Result, name string) []Point {
	cells := append([]Point(nil), res.Paths[name]...)
	for _, b := range res.Branches[name] {
		cells = append(cells, b...)
	}
	return cells
}

// pinsOf lists a net's pins: A, B, then its taps.
func pinsOf(n Net) []Point { return append([]Point{n.A, n.B}, n.Taps...) }

func TestMultiNetThreePins(t *testing.T) {
	g := NewGrid(12, 12, DefaultCost())
	net := Net{Name: "m", A: Point{X: 1, Y: 1, L: 0}, B: Point{X: 9, Y: 1, L: 0},
		Taps: []Point{{X: 5, Y: 8, L: 0}}}
	res := RouteAll(g, []Net{net}, Opts{Alg: AStar})
	if len(res.Failed) != 0 {
		t.Fatalf("failed: %v", res.Failed)
	}
	if len(res.Branches["m"]) != 1 {
		t.Fatalf("want one branch, got %v", res.Branches["m"])
	}
	// Tree must touch every pin and be connected: flood fill from pin
	// 0 over tree points.
	if !treeConnected(treeCells(res, "m"), pinsOf(net)) {
		t.Error("tree is not connected")
	}
	// Sharing should beat three independent two-pin routes star-wise:
	// tree wirelength is at most sum of pairwise distances to pin 0.
	starBound := manhattan(net.A, net.B) + manhattan(net.A, net.Taps[0])
	if res.Length > starBound {
		t.Errorf("tree wirelength %d exceeds star bound %d", res.Length, starBound)
	}
}

// treeConnected reports whether cells form one unit-step-connected set
// holding every pin.
func treeConnected(cells []Point, pins []Point) bool {
	pts := map[Point]bool{}
	for _, p := range cells {
		pts[p] = true
	}
	if len(pts) == 0 {
		return false
	}
	visited := map[Point]bool{}
	stack := []Point{pins[0]}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[p] || !pts[p] {
			continue
		}
		visited[p] = true
		for _, q := range []Point{
			{p.X + 1, p.Y, p.L}, {p.X - 1, p.Y, p.L},
			{p.X, p.Y + 1, p.L}, {p.X, p.Y - 1, p.L},
			{p.X, p.Y, 1 - p.L},
		} {
			stack = append(stack, q)
		}
	}
	for _, pin := range pins {
		if !visited[pin] {
			return false
		}
	}
	return true
}

func TestMultiNetSharingBeatsIndependent(t *testing.T) {
	// A 5-pin bus along one row: the tree should reuse the trunk.
	g := NewGrid(30, 10, DefaultCost())
	net := Net{Name: "bus", A: Point{X: 2, Y: 5, L: 0}, B: Point{X: 8, Y: 5, L: 0},
		Taps: []Point{{X: 14, Y: 5, L: 0}, {X: 20, Y: 5, L: 0}, {X: 26, Y: 5, L: 0}}}
	res := RouteAll(g, []Net{net}, Opts{Alg: AStar})
	if len(res.Failed) != 0 {
		t.Fatalf("failed: %v", res.Failed)
	}
	// Optimal trunk = 24 segments; allow slack but forbid star (72).
	if wl := res.Length; wl > 30 {
		t.Errorf("bus tree wirelength %d, want near 24", wl)
	}
}

func TestMultiNetWithObstacles(t *testing.T) {
	g := NewGrid(15, 15, DefaultCost())
	for y := 0; y < 14; y++ {
		g.Block(Point{X: 7, Y: y, L: 0})
		g.Block(Point{X: 7, Y: y, L: 1})
	}
	obstacles := g.Clone()
	net := Net{Name: "m", A: Point{X: 2, Y: 2, L: 0}, B: Point{X: 12, Y: 2, L: 0},
		Taps: []Point{{X: 2, Y: 12, L: 0}}}
	res := RouteAll(g, []Net{net}, Opts{Alg: Dijkstra})
	if len(res.Failed) != 0 {
		t.Fatalf("failed: %v", res.Failed)
	}
	if !treeConnected(treeCells(res, "m"), pinsOf(net)) {
		t.Error("tree not connected around obstacle")
	}
	for _, p := range treeCells(res, "m") {
		if obstacles.Blocked(p) {
			t.Errorf("tree crosses obstacle at %v", p)
		}
	}
}

func TestMultiNetErrors(t *testing.T) {
	g := NewGrid(5, 5, DefaultCost())
	tapped := Net{Name: "tapped", A: Point{X: 0, Y: 0, L: 0}, B: Point{X: 4, Y: 0, L: 0},
		Taps: []Point{{X: 2, Y: 4, L: 0}}}
	if _, _, _, err := RouteNet(g, tapped, AStar); err == nil {
		t.Error("RouteNet should reject a net with taps")
	}
	off := Net{Name: "off", A: Point{X: 1, Y: 1, L: 0}, B: Point{X: 2, Y: 1, L: 0},
		Taps: []Point{{X: 9, Y: 9, L: 0}}}
	if res := RouteAll(g.Clone(), []Net{off}, Opts{Alg: AStar}); len(res.Failed) != 1 {
		t.Errorf("off-grid tap should fail, got failed %v", res.Failed)
	}
	// Walled-off tap.
	for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		for l := 0; l < Layers; l++ {
			p := Point{X: 3 + d[0], Y: 3 + d[1], L: l}
			if g.In(p) {
				g.Block(p)
			}
		}
	}
	g.Block(Point{X: 3, Y: 3, L: 1})
	walled := Net{Name: "walled", A: Point{X: 0, Y: 0, L: 0}, B: Point{X: 0, Y: 4, L: 0},
		Taps: []Point{{X: 3, Y: 3, L: 0}}}
	work := g.Clone()
	res := RouteAll(work, []Net{walled}, Opts{Alg: AStar})
	if len(res.Failed) != 1 || len(res.Paths) != 0 || len(res.Branches) != 0 {
		t.Fatalf("walled tap should fail the whole net: failed %v, paths %v, branches %v",
			res.Failed, res.Paths, res.Branches)
	}
	// The failed net's partial tree (its trunk) leaves no wire behind.
	for y := 1; y < 4; y++ {
		if p := (Point{X: 0, Y: y, L: 0}); work.Blocked(p) {
			t.Errorf("failed net left %v blocked", p)
		}
	}
}

func TestRouteAllMulti(t *testing.T) {
	g := NewGrid(25, 25, DefaultCost())
	rng := rand.New(rand.NewSource(3))
	var nets []Net
	for i := 0; i < 8; i++ {
		k := 2 + rng.Intn(3)
		pins := map[Point]bool{}
		var list []Point
		for len(list) < k {
			p := Point{X: rng.Intn(25), Y: rng.Intn(25), L: 0}
			if !pins[p] {
				pins[p] = true
				list = append(list, p)
			}
		}
		nets = append(nets, Net{Name: string(rune('a' + i)), A: list[0], B: list[1], Taps: list[2:]})
	}
	res := RouteAll(g, nets, Opts{Alg: AStar, Seed: 3})
	if len(res.Failed) > 1 {
		t.Errorf("failed nets: %v", res.Failed)
	}
	// Trees must connect their pins and be mutually disjoint.
	used := map[Point]string{}
	for _, n := range nets {
		if _, ok := res.Paths[n.Name]; !ok {
			continue
		}
		if !treeConnected(treeCells(res, n.Name), pinsOf(n)) {
			t.Errorf("tree %s does not connect its pins", n.Name)
		}
		for _, p := range treeCells(res, n.Name) {
			if prev, clash := used[p]; clash && prev != n.Name {
				t.Fatalf("trees %s and %s share %v", prev, n.Name, p)
			}
			used[p] = n.Name
		}
	}
}

func TestMultiNetDuplicatePins(t *testing.T) {
	g := NewGrid(10, 10, DefaultCost())
	net := Net{Name: "dup", A: Point{X: 1, Y: 1, L: 0}, B: Point{X: 5, Y: 5, L: 0},
		Taps: []Point{{X: 1, Y: 1, L: 0}}}
	res := RouteAll(g, []Net{net}, Opts{Alg: AStar})
	if len(res.Failed) != 0 {
		t.Fatalf("failed: %v", res.Failed)
	}
	if !treeConnected(treeCells(res, "dup"), []Point{{X: 1, Y: 1, L: 0}, {X: 5, Y: 5, L: 0}}) {
		t.Error("tree with duplicate pins not connected")
	}
	// A tap already on the tree joins by a one-cell branch.
	if b := res.Branches["dup"]; len(b) != 1 || len(b[0]) != 1 {
		t.Errorf("duplicate tap branch %v, want one one-cell path", b)
	}
}

// TestRipupTapNet routes a 3-pin net t that can join its pins only
// through row 1, after a 3-pin net v whose cheapest tree takes row 1
// for its trunk and the bottom row for its branch (layer 1 is
// blocked, '#' is an obstacle):
//
//	#t#t#t#   t: A=(1,0) B=(5,0) tap (3,0)
//	.......
//	v#####v   v: A=(0,2) B=(6,2) tap (3,5)
//	.#####.
//	.......
//	###v###
//
// Without rip-up t fails. With it, t's penalized tree crosses v's
// trunk, v's whole tree is ripped, t routes, and v reroutes its trunk
// along the bottom row with a one-step branch.
func TestRipupTapNet(t *testing.T) {
	maze := []string{
		"#.#.#.#",
		".......",
		".#####.",
		".#####.",
		".......",
		"###.###",
	}
	g := NewGrid(len(maze[0]), len(maze), DefaultCost())
	for y, row := range maze {
		for x, c := range row {
			g.Block(Point{X: x, Y: y, L: 1})
			if c == '#' {
				g.Block(Point{X: x, Y: y, L: 0})
			}
		}
	}
	nets := []Net{
		{Name: "v", A: Point{X: 0, Y: 2}, B: Point{X: 6, Y: 2}, Taps: []Point{{X: 3, Y: 5}}},
		{Name: "t", A: Point{X: 1, Y: 0}, B: Point{X: 5, Y: 0}, Taps: []Point{{X: 3, Y: 0}}},
	}
	greedy := RouteAll(g.Clone(), nets, Opts{Alg: AStar, RipupRounds: -1})
	if len(greedy.Failed) != 1 || greedy.Failed[0] != "t" {
		t.Fatalf("without rip-up failed %v, want [t]", greedy.Failed)
	}
	if len(greedy.Branches["v"]) != 1 || len(greedy.Branches["v"][0]) != 7 {
		t.Fatalf("v's first branch %v, want the 7-cell run along the bottom row", greedy.Branches["v"])
	}
	res := RouteAll(g.Clone(), nets, Opts{Alg: AStar, Seed: 1})
	if len(res.Failed) != 0 {
		t.Fatalf("with rip-up failed %v", res.Failed)
	}
	used := map[Point]string{}
	for _, n := range nets {
		if !treeConnected(treeCells(res, n.Name), pinsOf(n)) {
			t.Errorf("tree %s does not connect its pins", n.Name)
		}
		for _, p := range treeCells(res, n.Name) {
			if prev, clash := used[p]; clash && prev != n.Name {
				t.Errorf("trees %s and %s share %v", prev, n.Name, p)
			}
			used[p] = n.Name
		}
	}
	for _, p := range res.Paths["v"] {
		if p.Y < 2 {
			t.Errorf("v's rerouted trunk still runs through row %d at %v", p.Y, p)
		}
	}
	if b := res.Branches["v"]; len(b) != 1 || len(b[0]) != 2 {
		t.Errorf("v's rerouted branch %v, want one step from (3,4)", b)
	}
}
