package xcheck

import (
	"fmt"
	"strings"

	"vlsicad/internal/route"
)

// PRouteInstance is a full-net-list routing test case: a two-layer
// grid with obstacles, a full net list (two-pin nets, and multi-pin
// nets whose pins beyond A and B are taps), and the RouteAll
// configuration. Every routed tree is checked for legality, pin
// reservation, connectivity and disjointness.
type PRouteInstance struct {
	Seed        uint64
	W, H        int
	Cost        route.Cost
	Blocked     []route.Point
	Nets        []route.Net
	MultiNets   []route.Net
	Alg         route.Algorithm
	Order       route.Order
	RipupRounds int
	RouteSeed   int64
}

// Domain implements Instance.
func (pi *PRouteInstance) Domain() string { return "proute" }

// InstanceSeed implements Instance.
func (pi *PRouteInstance) InstanceSeed() uint64 { return pi.Seed }

// Dump implements Instance.
func (pi *PRouteInstance) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "xcheck proute v1\nseed %d\ngrid %d %d\ncost %d %d %d\n",
		pi.Seed, pi.W, pi.H, pi.Cost.Unit, pi.Cost.NonPref, pi.Cost.Via)
	fmt.Fprintf(&b, "alg %d\norder %d\nripup %d\nrouteseed %d\n",
		pi.Alg, pi.Order, pi.RipupRounds, pi.RouteSeed)
	fmt.Fprintf(&b, "nets %d\n", len(pi.Nets))
	for _, n := range pi.Nets {
		fmt.Fprintf(&b, "%s %d %d %d  %d %d %d\n",
			n.Name, n.A.X, n.A.Y, n.A.L, n.B.X, n.B.Y, n.B.L)
	}
	fmt.Fprintf(&b, "multinets %d\n", len(pi.MultiNets))
	for _, m := range pi.MultiNets {
		pins := netPins(m)
		fmt.Fprintf(&b, "%s %d", m.Name, len(pins))
		for _, p := range pins {
			fmt.Fprintf(&b, "  %d %d %d", p.X, p.Y, p.L)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "blocked %d\n", len(pi.Blocked))
	for _, p := range pi.Blocked {
		fmt.Fprintf(&b, "%d %d %d\n", p.X, p.Y, p.L)
	}
	return b.String()
}

// Grid materializes the instance's routing grid (obstacles only).
func (pi *PRouteInstance) Grid() *route.Grid {
	g := route.NewGrid(pi.W, pi.H, pi.Cost)
	for _, p := range pi.Blocked {
		g.Block(p)
	}
	return g
}

// GenPRoute generates a full-net-list routing instance: a 16..32 ×
// 16..32 grid with ~12% blocked cells, 10..28 two-pin nets with
// mutually distinct pins (dense enough that nets compete for
// corridors), 3..6 multi-pin nets, and a randomly chosen algorithm,
// net order, rip-up budget and routing seed.
func GenPRoute(seed uint64) *PRouteInstance {
	rng := NewRNG(seed)
	pi := &PRouteInstance{
		Seed: seed,
		W:    rng.Range(16, 32),
		H:    rng.Range(16, 32),
		Cost: route.Cost{
			Unit:    rng.Range(1, 2),
			NonPref: rng.Range(0, 3),
			Via:     rng.Range(0, 10),
		},
		Alg:         route.Algorithm(rng.Intn(2)),
		Order:       route.Order(rng.Intn(3)),
		RipupRounds: rng.Intn(4),
		RouteSeed:   int64(rng.Intn(1 << 16)),
	}
	nblock := pi.W * pi.H * route.Layers * 12 / 100
	seen := map[route.Point]bool{}
	for i := 0; i < nblock; i++ {
		p := route.Point{X: rng.Intn(pi.W), Y: rng.Intn(pi.H), L: rng.Intn(route.Layers)}
		if !seen[p] {
			seen[p] = true
			pi.Blocked = append(pi.Blocked, p)
		}
	}
	// Pins are mutually distinct across all nets so the disjointness
	// oracle is exact (the serial router lets a net's own pin sit on a
	// blocked cell, but shared pins between nets would make overlap
	// legal and the check vacuous).
	usedPin := map[route.Point]bool{}
	freshPin := func() (route.Point, bool) {
		for tries := 0; tries < 64; tries++ {
			p := route.Point{X: rng.Intn(pi.W), Y: rng.Intn(pi.H), L: 0}
			if !usedPin[p] && !seen[p] {
				usedPin[p] = true
				return p, true
			}
		}
		return route.Point{}, false
	}
	nnets := rng.Range(10, 28)
	for i := 0; i < nnets; i++ {
		a, okA := freshPin()
		b, okB := freshPin()
		if !okA || !okB {
			break
		}
		pi.Nets = append(pi.Nets, route.Net{Name: fmt.Sprintf("n%d", len(pi.Nets)), A: a, B: b})
	}
	nmulti := rng.Range(3, 6)
	for i := 0; i < nmulti; i++ {
		k := rng.Range(2, 4)
		var pins []route.Point
		for len(pins) < k {
			p, ok := freshPin()
			if !ok {
				break
			}
			pins = append(pins, p)
		}
		if len(pins) >= 2 {
			pi.MultiNets = append(pi.MultiNets, route.Net{Name: fmt.Sprintf("m%d", i), A: pins[0], B: pins[1], Taps: pins[2:]})
		}
	}
	return pi
}

// netPins lists a net's pins: A, B, then its taps.
func netPins(n route.Net) []route.Point {
	return append([]route.Point{n.A, n.B}, n.Taps...)
}

// CheckPRoute routes the two-pin and multi-pin nets together in one
// RouteAll call and checks every routed tree (trunk plus branches):
//
//	every net                     —   reported exactly once, routed or failed
//	trunk and each branch         vs  route.Validate              (unit steps, no obstacle)
//	every tree cell               —   touches no foreign pin      (pins stay reserved)
//	each tree                     —   one branch per tap, one connected set holding every pin
//	all trees together            —   pairwise cell-disjoint      (no cell in two nets)
func (c *Checker) CheckPRoute(pi *PRouteInstance) []Mismatch {
	var out []Mismatch
	bad := func(format string, args ...interface{}) {
		out = append(out, Mismatch{Domain: "proute", Seed: pi.Seed,
			Detail: fmt.Sprintf(format, args...), Dump: pi.Dump()})
	}

	nets := append(append([]route.Net(nil), pi.Nets...), pi.MultiNets...)
	res := route.RouteAll(pi.Grid(), nets,
		route.Opts{Alg: pi.Alg, Order: pi.Order, RipupRounds: pi.RipupRounds, Seed: pi.RouteSeed})

	reported := map[string]int{}
	for _, name := range res.Failed {
		reported[name]++
	}
	for name := range res.Paths {
		reported[name]++
	}
	for _, n := range nets {
		if k := reported[n.Name]; k != 1 {
			bad("net %s reported %d times as routed or failed, want 1", n.Name, k)
		}
		delete(reported, n.Name)
	}
	if len(reported) > 0 {
		bad("%d routed or failed names match no net", len(reported))
	}
	for name := range res.Branches {
		if _, ok := res.Paths[name]; !ok {
			bad("net %s has branches but no trunk", name)
		}
	}

	// Legality on the obstacle-only grid, pin reservation,
	// connectivity and pairwise disjointness. Pins are mutually
	// distinct across nets, so a tree may touch a pin cell only if the
	// pin is its own, and no cell may belong to two trees.
	obstacles := pi.Grid()
	pinOf := map[route.Point]string{}
	for _, n := range nets {
		for _, p := range netPins(n) {
			pinOf[p] = n.Name
		}
	}
	owner := map[route.Point]string{}
	for _, n := range nets {
		trunk, ok := res.Paths[n.Name]
		if !ok {
			continue
		}
		if err := route.Validate(obstacles, n, trunk); err != nil {
			bad("net %s: trunk is illegal on the obstacle grid: %v", n.Name, err)
		}
		branches := res.Branches[n.Name]
		if len(branches) != len(n.Taps) {
			bad("net %s: %d branches for %d taps", n.Name, len(branches), len(n.Taps))
		}
		on := map[route.Point]bool{}
		for _, p := range append([]route.Path{trunk}, branches...) {
			if len(p) == 0 {
				bad("net %s: empty branch", n.Name)
				continue
			}
			ends := route.Net{Name: n.Name, A: p[0], B: p[len(p)-1]}
			if err := route.Validate(obstacles, ends, p); err != nil {
				bad("net %s: branch is illegal on the obstacle grid: %v", n.Name, err)
			}
			for _, pt := range p {
				on[pt] = true
			}
		}
		for pt := range on {
			if name, pin := pinOf[pt]; pin && name != n.Name {
				bad("net %s crosses pin (%d,%d,%d) of net %s", n.Name, pt.X, pt.Y, pt.L, name)
			}
			if prev, dup := owner[pt]; dup {
				bad("nets %s and %s share cell (%d,%d,%d)", prev, n.Name, pt.X, pt.Y, pt.L)
			}
			owner[pt] = n.Name
		}
		reached := connected(on, n.A)
		for _, p := range netPins(n) {
			if !reached[p] {
				bad("net %s: pin (%d,%d,%d) is not connected to A", n.Name, p.X, p.Y, p.L)
			}
		}
		if len(reached) != len(on) {
			bad("net %s: %d of its %d tree cells are not connected to A", n.Name, len(on)-len(reached), len(on))
		}
	}

	c.note("proute", pi.Seed, out)
	return out
}

// connected returns the cells of on reachable from start by unit steps
// (one track on a layer, or a via) within on.
func connected(on map[route.Point]bool, start route.Point) map[route.Point]bool {
	seen := map[route.Point]bool{}
	stack := []route.Point{start}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[p] || !on[p] {
			continue
		}
		seen[p] = true
		stack = append(stack,
			route.Point{X: p.X + 1, Y: p.Y, L: p.L}, route.Point{X: p.X - 1, Y: p.Y, L: p.L},
			route.Point{X: p.X, Y: p.Y + 1, L: p.L}, route.Point{X: p.X, Y: p.Y - 1, L: p.L},
			route.Point{X: p.X, Y: p.Y, L: 1 - p.L})
	}
	return seen
}
