package route

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// neighbours lists p's grid neighbours in the search's order: +x, -x,
// +y, -y, then the other layer. Some may lie off the grid.
func neighbours(p Point) []Point {
	return []Point{{p.X + 1, p.Y, p.L}, {p.X - 1, p.Y, p.L}, {p.X, p.Y + 1, p.L}, {p.X, p.Y - 1, p.L}, {p.X, p.Y, 1 - p.L}}
}

// reachable is the reachability oracle: a breadth-first search from a
// over unblocked cells, which reports whether it meets b. Like a net's
// pins, a and b may themselves be blocked.
func reachable(g *Grid, a, b Point) bool {
	seen := map[Point]bool{a: true}
	for queue := []Point{a}; len(queue) > 0; queue = queue[1:] {
		p := queue[0]
		if p == b {
			return true
		}
		for _, q := range neighbours(p) {
			if g.In(q) && !seen[q] && (q == b || !g.Blocked(q)) {
				seen[q] = true
				queue = append(queue, q)
			}
		}
	}
	return false
}

// refItem is a frontier entry of refDijkstra.
type refItem struct {
	p    Point
	cost int
}

type refHeap []refItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].cost < h[j].cost }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// refDijkstra is a plain Dijkstra reference for a two-pin net, with
// costs from Grid.StepCost: a minimum-cost path from a to b over
// unblocked cells (a and b may be blocked), or nil if there is none.
func refDijkstra(g *Grid, a, b Point) Path {
	dist := map[Point]int{a: 0}
	prev := map[Point]Point{}
	done := map[Point]bool{}
	h := &refHeap{{a, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		if done[it.p] {
			continue
		}
		done[it.p] = true
		if it.p == b {
			path := Path{b}
			for p := b; p != a; {
				p = prev[p]
				path = append(path, p)
			}
			slices.Reverse(path)
			return path
		}
		for _, q := range neighbours(it.p) {
			if !g.In(q) || done[q] || (q != b && g.Blocked(q)) {
				continue
			}
			nd := it.cost + g.StepCost(it.p, q)
			if d, ok := dist[q]; !ok || nd < d {
				dist[q], prev[q] = nd, it.p
				heap.Push(h, refItem{q, nd})
			}
		}
	}
	return nil
}

// wallIn blocks, on both layers, the ring of cells around the
// rectangle x0..x1 × y0..y1, clipped to the grid, and returns how many
// cells the rectangle holds on both layers.
func wallIn(g *Grid, x0, y0, x1, y1 int) int {
	for x := x0 - 1; x <= x1+1; x++ {
		for y := y0 - 1; y <= y1+1; y++ {
			if x >= x0 && x <= x1 && y >= y0 && y <= y1 {
				continue
			}
			for l := 0; l < Layers; l++ {
				if p := (Point{x, y, l}); g.In(p) {
					g.Block(p)
				}
			}
		}
	}
	return Layers * (x1 - x0 + 1) * (y1 - y0 + 1)
}

// TestRouteGiveUpWalledTarget walls a target pin into a pocket of P
// free cells on a 64×64 grid. The search must give up once the
// target's flood has taken the pocket, about 2P pops in all (one A*
// pop per flood pop), instead of expanding the whole grid.
func TestRouteGiveUpWalledTarget(t *testing.T) {
	g := NewGrid(64, 64, DefaultCost())
	pocket := wallIn(g, 40, 40, 44, 43)
	net := Net{Name: "w", A: Point{2, 2, 0}, B: Point{42, 41, 0}}
	for _, alg := range []Algorithm{Dijkstra, AStar} {
		_, _, exp, err := RouteNet(g, net, alg)
		if err == nil || err.Error() != "route: net w unroutable" {
			t.Fatalf("alg %d: err %v, want the unroutable error", alg, err)
		}
		if exp > 2*pocket+2 {
			t.Errorf("alg %d: expanded %d for a target in a pocket of %d cells, want ≤ %d", alg, exp, pocket, 2*pocket+2)
		}
	}
}

// TestRouteNetMatchesOracles routes random two-pin nets on seeded
// random grids with walled pockets and scattered blocks. RouteNet
// must fail exactly when the breadth-first oracle finds no way from A
// to B, and otherwise return a legal path whose cost is that of a
// plain Dijkstra reference.
func TestRouteNetMatchesOracles(t *testing.T) {
	var routed, unroutable int
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, h := 4+rng.Intn(17), 4+rng.Intn(17)
		g := NewGrid(w, h, Cost{Unit: 1 + rng.Intn(2), NonPref: rng.Intn(4), Via: 1 + rng.Intn(12)})
		for k := rng.Intn(3); k > 0; k-- {
			x0, y0 := rng.Intn(w), rng.Intn(h)
			wallIn(g, x0, y0, x0+rng.Intn(4), y0+rng.Intn(4))
		}
		for k := rng.Intn(w * h / 3); k > 0; k-- {
			g.Block(Point{rng.Intn(w), rng.Intn(h), rng.Intn(Layers)})
		}
		// Pins may sit on blocked cells, as pin markers do.
		net := Net{Name: "n",
			A: Point{rng.Intn(w), rng.Intn(h), rng.Intn(Layers)},
			B: Point{rng.Intn(w), rng.Intn(h), rng.Intn(Layers)}}
		want := reachable(g, net.A, net.B)
		ref := refDijkstra(g, net.A, net.B)
		if want != (ref != nil) {
			t.Fatalf("seed %d: the oracles disagree", seed)
		}
		if want {
			routed++
		} else {
			unroutable++
		}
		for _, alg := range []Algorithm{Dijkstra, AStar} {
			path, cost, _, err := RouteNet(g, net, alg)
			if (err == nil) != want {
				t.Fatalf("seed %d alg %d: RouteNet err %v, oracle reachable %v", seed, alg, err, want)
			}
			if err != nil {
				continue
			}
			if err := Validate(g, net, path); err != nil {
				t.Fatalf("seed %d alg %d: %v", seed, alg, err)
			}
			if pc, rc := PathCost(g, path), PathCost(g, ref); cost != pc || cost != rc {
				t.Fatalf("seed %d alg %d: cost %d, path cost %d, reference cost %d", seed, alg, cost, pc, rc)
			}
		}
	}
	if routed < 30 || unroutable < 30 {
		t.Fatalf("%d routable and %d unroutable instances; the grids no longer test both", routed, unroutable)
	}
}

// TestRouteAllWalledNetsFail routes k-pin nets with rip-up on a grid
// where some nets have a pin walled into a pocket of its own. RouteAll
// must fail exactly the nets that the oracle finds a pin of
// unreachable from A, once every pin is blocked as RouteAll blocks
// them; the grid is roomy enough that no net fails for congestion.
func TestRouteAllWalledNetsFail(t *testing.T) {
	g := NewGrid(40, 40, DefaultCost())
	wallIn(g, 30, 30, 33, 33)
	wallIn(g, 5, 30, 8, 32)
	wallIn(g, 20, 10, 22, 11)
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 120; k++ {
		g.Block(Point{rng.Intn(40), rng.Intn(40), rng.Intn(Layers)})
	}
	pt := func(x, y int) Point { return Point{x, y, 0} }
	nets := []Net{
		{Name: "open3", A: pt(2, 2), B: pt(15, 3), Taps: []Point{pt(9, 20)}},
		{Name: "open4", A: pt(36, 2), B: pt(36, 20), Taps: []Point{pt(25, 25), pt(28, 4)}},
		{Name: "open2", A: pt(12, 36), B: pt(26, 37)},
		{Name: "tapIn", A: pt(3, 12), B: pt(14, 14), Taps: []Point{pt(31, 31)}},
		{Name: "bIn", A: pt(17, 25), B: pt(6, 31)},
		{Name: "aIn", A: pt(21, 10), B: pt(24, 16), Taps: []Point{pt(18, 6)}},
		{Name: "shareIn", A: pt(37, 36), B: pt(33, 33), Taps: []Point{pt(2, 38)}},
	}
	for _, n := range nets {
		for _, p := range pinsOf(n) {
			g.Block(p)
		}
	}
	var want []string
	for _, n := range nets {
		for _, p := range pinsOf(n)[1:] {
			if !reachable(g, n.A, p) {
				want = append(want, n.Name)
				break
			}
		}
	}
	slices.Sort(want)
	if len(want) != 4 {
		t.Fatalf("oracle finds %v walled in; the instance should wall in four nets", want)
	}
	res := RouteAll(g.Clone(), nets, Opts{Alg: AStar, Order: OrderShortFirst, RipupRounds: 3, Seed: 5})
	if !slices.Equal(res.Failed, want) {
		t.Errorf("failed %v, want %v", res.Failed, want)
	}
	for _, n := range nets {
		if _, ok := res.Paths[n.Name]; ok && !treeConnected(treeCells(res, n.Name), pinsOf(n)) {
			t.Errorf("net %s: routed tree does not join its pins", n.Name)
		}
	}
}

// TestSearchStateReuseAcrossGrids reuses one search scratch: first on
// a large grid, then on smaller ones where the flood gives up or meets
// A*, and again across an epoch wrap. Every search must return what it
// returns on fresh scratch, and give up only when it should.
func TestSearchStateReuseAcrossGrids(t *testing.T) {
	big := NewGrid(64, 64, DefaultCost())
	wallIn(big, 40, 40, 44, 43)
	walled := NewGrid(16, 16, DefaultCost())
	wallIn(walled, 9, 9, 11, 10)
	open := NewGrid(16, 16, DefaultCost())
	open.Block(Point{7, 7, 0})
	open.Block(Point{7, 8, 1})
	// sealed's cell (4,4,0) has no passable neighbour.
	sealed := NewGrid(8, 8, DefaultCost())
	wallIn(sealed, 4, 4, 4, 4)
	sealed.Block(Point{4, 4, 1})
	type search struct {
		g        *Grid
		from     []Point
		to       Point
		alg      Algorithm
		unrouted bool
	}
	searches := []search{
		{big, []Point{{2, 2, 0}}, Point{42, 41, 0}, AStar, true},
		{walled, []Point{{1, 1, 0}}, Point{10, 9, 1}, AStar, true},
		{walled, []Point{{1, 1, 0}, {14, 3, 0}}, Point{2, 13, 0}, Dijkstra, false},
		{open, []Point{{0, 15, 1}}, Point{15, 0, 0}, AStar, false},
		{big, []Point{{60, 3, 1}}, Point{3, 60, 0}, Dijkstra, false},
		// The target is also a source, popped after the other one:
		// the flood must not start from it and give up.
		{sealed, []Point{{1, 1, 0}, {4, 4, 0}}, Point{4, 4, 0}, Dijkstra, false},
	}
	run := func(st *searchState, s search) string {
		p, c, e, err := routeNetState(s.g, "r", s.from, s.to, s.alg, st, nil)
		if (err != nil) != s.unrouted {
			t.Fatalf("search to %v: err %v, want unroutable %v", s.to, err, s.unrouted)
		}
		return fmt.Sprint(p, c, e, err)
	}
	st := &searchState{}
	for round := 0; round < 2; round++ {
		for i, s := range searches {
			if got, want := run(st, s), run(&searchState{}, s); got != want {
				t.Errorf("round %d search %d: reused scratch gives %s, fresh gives %s", round, i, got, want)
			}
		}
		st.epoch = math.MaxUint32 // the next search wraps the epoch
	}
	if len(st.side) != len(st.seen) {
		t.Errorf("flood stamps %d long, search stamps %d", len(st.side), len(st.seen))
	}
}
