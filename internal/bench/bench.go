// Package bench generates deterministic synthetic EDA workloads that
// stand in for the MCNC benchmark suite the course used (the real
// suite is not redistributable and the environment is offline). Sizes
// and connectivity statistics mimic the classic circuits; generation
// is seeded so every experiment is reproducible.
package bench

import (
	"fmt"
	"math/rand"

	"vlsicad/internal/cube"
	"vlsicad/internal/netlist"
	"vlsicad/internal/place"
	"vlsicad/internal/route"
)

// Case names a placement/routing benchmark with MCNC-like scale.
type Case struct {
	Name  string
	Cells int
	Nets  int
	GridW int
	GridH int
}

// Suite returns the course's benchmark ladder: the small circuits used
// in the regular project, plus the larger "extra credit" sizes of
// paper Figure 7. Sizes echo the classic MCNC standard-cell suite.
func Suite() []Case {
	return []Case{
		{Name: "fract", Cells: 125, Nets: 147, GridW: 16, GridH: 16},
		{Name: "prim1", Cells: 752, Nets: 902, GridW: 36, GridH: 36},
		{Name: "struct", Cells: 1888, Nets: 1920, GridW: 56, GridH: 56},
		{Name: "prim2", Cells: 2907, Nets: 3029, GridW: 70, GridH: 70},
	}
}

// Placement builds a placement problem for the case: cells connected
// with Rent-style locality (most nets short-range in a virtual
// ordering, a tail of long-range nets) and boundary pads.
func Placement(c Case, seed int64) *place.Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &place.Problem{
		NCells: c.Cells,
		W:      float64(c.GridW),
		H:      float64(c.GridH),
	}
	nPads := 4 + c.Cells/32
	for i := 0; i < nPads; i++ {
		t := float64(i) / float64(nPads)
		var x, y float64
		switch i % 4 {
		case 0:
			x, y = t*p.W, 0
		case 1:
			x, y = p.W, t*p.H
		case 2:
			x, y = (1-t)*p.W, p.H
		default:
			x, y = 0, (1-t)*p.H
		}
		p.Pads = append(p.Pads, place.Pad{Name: fmt.Sprintf("pad%d", i), X: x, Y: y})
	}
	for n := 0; n < c.Nets; n++ {
		deg := 2
		if rng.Float64() < 0.3 {
			deg = 3 + rng.Intn(3)
		}
		net := place.Net{}
		anchor := rng.Intn(c.Cells)
		net.Cells = append(net.Cells, anchor)
		for d := 1; d < deg; d++ {
			if rng.Float64() < 0.8 {
				// Local: within a window of the anchor in cell order.
				w := 1 + c.Cells/20
				o := anchor + rng.Intn(2*w+1) - w
				if o < 0 {
					o = 0
				}
				if o >= c.Cells {
					o = c.Cells - 1
				}
				if o != anchor {
					net.Cells = append(net.Cells, o)
				}
			} else {
				net.Cells = append(net.Cells, rng.Intn(c.Cells))
			}
		}
		if rng.Float64() < 0.1 {
			net.Pads = append(net.Pads, rng.Intn(nPads))
		}
		if len(net.Cells)+len(net.Pads) >= 2 {
			p.Nets = append(p.Nets, net)
		}
	}
	return p
}

// Routing derives a two-pin routing instance from a legal placement:
// each placement net becomes a wire between its two extreme pins, with
// a sprinkling of blocked cells as macros/obstacles.
func Routing(c Case, pl *place.Placement, p *place.Problem, seed int64, obstacleFrac float64) (*route.Grid, []route.Net) {
	rng := rand.New(rand.NewSource(seed + 1))
	// Routing grid is finer than the placement grid.
	scale := 5
	g := route.NewGrid(c.GridW*scale+2, c.GridH*scale+2, route.DefaultCost())
	nBlocks := int(obstacleFrac * float64(g.W*g.H))
	for i := 0; i < nBlocks; i++ {
		pt := route.Point{X: rng.Intn(g.W), Y: rng.Intn(g.H), L: rng.Intn(route.Layers)}
		g.Block(pt)
	}
	usedPin := map[route.Point]bool{}
	pinAt := func(cell int) (route.Point, bool) {
		base := route.Point{
			X: int(pl.X[cell] * float64(scale)),
			Y: int(pl.Y[cell] * float64(scale)),
			L: 0,
		}
		// Find a free pin location near the cell.
		for dy := 0; dy < 3; dy++ {
			for dx := 0; dx < 3; dx++ {
				pt := route.Point{X: base.X + dx, Y: base.Y + dy, L: 0}
				if g.In(pt) && !g.Blocked(pt) && !usedPin[pt] {
					usedPin[pt] = true
					return pt, true
				}
			}
		}
		return route.Point{}, false
	}
	var nets []route.Net
	for ni, n := range p.Nets {
		if len(n.Cells) < 2 {
			continue
		}
		a, okA := pinAt(n.Cells[0])
		b, okB := pinAt(n.Cells[len(n.Cells)-1])
		if !okA || !okB || a == b {
			continue
		}
		nets = append(nets, route.Net{Name: fmt.Sprintf("n%d", ni), A: a, B: b})
	}
	return g, nets
}

// NetworkSpec sizes a synthetic combinational network.
type NetworkSpec struct {
	Name    string
	Inputs  int
	Nodes   int
	Outputs int
	MaxIn   int // max fanins per node (default 3)
}

// Network builds a random acyclic Boolean network: node i reads from
// earlier signals, with random SOP covers — the workload for the
// synthesis and mapping experiments.
func Network(spec NetworkSpec, seed int64) *netlist.Network {
	rng := rand.New(rand.NewSource(seed))
	if spec.MaxIn <= 0 {
		spec.MaxIn = 3
	}
	nw := netlist.New(spec.Name)
	var signals []string
	for i := 0; i < spec.Inputs; i++ {
		name := fmt.Sprintf("pi%d", i)
		nw.AddInput(name)
		signals = append(signals, name)
	}
	for i := 0; i < spec.Nodes; i++ {
		name := fmt.Sprintf("g%d", i)
		k := 2
		if spec.MaxIn > 2 {
			k = 2 + rng.Intn(spec.MaxIn-1)
		}
		if k > len(signals) {
			k = len(signals)
		}
		// Distinct fanins biased toward recent signals.
		fanins := map[string]bool{}
		var fin []string
		for len(fin) < k {
			var idx int
			if rng.Float64() < 0.7 && len(signals) > 8 {
				idx = len(signals) - 1 - rng.Intn(8)
			} else {
				idx = rng.Intn(len(signals))
			}
			s := signals[idx]
			if !fanins[s] {
				fanins[s] = true
				fin = append(fin, s)
			}
		}
		cov := cube.NewCover(len(fin))
		rows := 1 + rng.Intn(3)
		for r := 0; r < rows; r++ {
			c := cube.NewCube(len(fin))
			nonDC := false
			for v := range c {
				switch rng.Intn(3) {
				case 0:
					c[v] = cube.Pos
					nonDC = true
				case 1:
					c[v] = cube.Neg
					nonDC = true
				}
			}
			if nonDC {
				cov.Add(c)
			}
		}
		if cov.IsEmpty() {
			c := cube.NewCube(len(fin))
			c[0] = cube.Pos
			cov.Add(c)
		}
		nw.AddNode(name, fin, cov)
		signals = append(signals, name)
	}
	// Outputs: the last few node signals.
	for i := 0; i < spec.Outputs && i < spec.Nodes; i++ {
		nw.AddOutput(fmt.Sprintf("g%d", spec.Nodes-1-i))
	}
	return nw
}
