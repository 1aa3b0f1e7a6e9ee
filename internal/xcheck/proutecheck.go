package xcheck

import (
	"fmt"
	"strings"

	"vlsicad/internal/route"
)

// PRouteInstance is a full-net-list routing test case: a two-layer
// grid with obstacles, a full net list (two-pin and multi-pin), and
// the RouteAll configuration. Every routed path and multi-pin tree is
// checked for legality, pin reservation and disjointness.
type PRouteInstance struct {
	Seed        uint64
	W, H        int
	Cost        route.Cost
	Blocked     []route.Point
	Nets        []route.Net
	MultiNets   []route.MultiNet
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
		fmt.Fprintf(&b, "%s %d", m.Name, len(m.Pins))
		for _, p := range m.Pins {
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
			pi.MultiNets = append(pi.MultiNets, route.MultiNet{Name: fmt.Sprintf("m%d", i), Pins: pins})
		}
	}
	return pi
}

// CheckPRoute checks RouteAll and RouteAllMulti on one instance:
//
//	every routed path             vs  route.Validate              (legality on the obstacle grid)
//	every routed path             —   touches no foreign pin      (pins stay reserved)
//	all routed paths together     —   pairwise cell-disjoint      (no two nets share a cell)
//	RouteAllMulti trees           —   pins on tree, cell-disjoint, each net routed xor failed
func (c *Checker) CheckPRoute(pi *PRouteInstance) []Mismatch {
	var out []Mismatch
	bad := func(format string, args ...interface{}) {
		out = append(out, Mismatch{Domain: "proute", Seed: pi.Seed,
			Detail: fmt.Sprintf(format, args...), Dump: pi.Dump()})
	}

	res := route.RouteAll(pi.Grid(), pi.Nets,
		route.Opts{Alg: pi.Alg, Order: pi.Order, RipupRounds: pi.RipupRounds, Seed: pi.RouteSeed})

	// Legality on the obstacle-only grid, pin reservation, and
	// pairwise disjointness. A path may touch a pin cell only if the
	// pin is its own net's, and two paths may share only a cell that
	// is a pin of both nets.
	obstacles := pi.Grid()
	pinCell := map[route.Point]bool{}
	for _, n := range pi.Nets {
		pinCell[n.A], pinCell[n.B] = true, true
	}
	owner := map[route.Point]string{}
	for _, n := range pi.Nets {
		p, ok := res.Paths[n.Name]
		if !ok {
			continue
		}
		if err := route.Validate(obstacles, n, p); err != nil {
			bad("net %s: path is illegal on the obstacle grid: %v", n.Name, err)
		}
		for _, pt := range p {
			own := pt == n.A || pt == n.B
			if pinCell[pt] && !own {
				bad("net %s crosses a foreign pin at (%d,%d,%d)", n.Name, pt.X, pt.Y, pt.L)
				break
			}
			if prev, dup := owner[pt]; dup && !own {
				bad("nets %s and %s overlap at non-pin cell (%d,%d,%d)", prev, n.Name, pt.X, pt.Y, pt.L)
				break
			}
			owner[pt] = n.Name
		}
	}

	// Multi-pin routing is serial; check its trees for legality: each
	// routed tree contains all of its net's pins, no cell belongs to
	// two trees, and every net is reported exactly once, routed or
	// failed.
	if len(pi.MultiNets) > 0 {
		trees, failed := route.RouteAllMulti(pi.Grid(), pi.MultiNets, pi.Alg)
		reported := map[string]int{}
		for _, name := range failed {
			reported[name]++
		}
		for name := range trees {
			reported[name]++
		}
		for _, n := range pi.MultiNets {
			if k := reported[n.Name]; k != 1 {
				bad("multi: net %s reported %d times as routed or failed, want 1", n.Name, k)
			}
			delete(reported, n.Name)
		}
		if len(reported) > 0 {
			bad("multi: %d routed or failed names match no net", len(reported))
		}
		treeOwner := map[route.Point]string{}
		for _, n := range pi.MultiNets {
			t, ok := trees[n.Name]
			if !ok {
				continue
			}
			on := map[route.Point]bool{}
			for _, pt := range t.Points() {
				on[pt] = true
				if prev, dup := treeOwner[pt]; dup {
					bad("multi: trees %s and %s share cell (%d,%d,%d)", prev, n.Name, pt.X, pt.Y, pt.L)
					break
				}
				treeOwner[pt] = n.Name
			}
			for _, p := range n.Pins {
				if !on[p] {
					bad("multi: pin (%d,%d,%d) of net %s is not on its tree", p.X, p.Y, p.L, n.Name)
				}
			}
		}
	}

	c.note("proute", pi.Seed, out)
	return out
}
