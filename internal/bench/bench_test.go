package bench

import (
	"testing"

	"vlsicad/internal/place"
	"vlsicad/internal/route"
)

func TestSuiteShape(t *testing.T) {
	s := Suite()
	if len(s) < 4 {
		t.Fatalf("suite has %d cases", len(s))
	}
	for _, c := range s {
		if c.Cells <= 0 || c.Nets <= 0 || c.GridW*c.GridH < c.Cells {
			t.Errorf("case %s unplaceable: %+v", c.Name, c)
		}
	}
	if s[0].Name != "fract" || s[0].Cells != 125 {
		t.Errorf("fract should lead the suite: %+v", s[0])
	}
}

func TestPlacementIsValidAndDeterministic(t *testing.T) {
	c := Suite()[0]
	p1 := Placement(c, 7)
	if err := p1.Validate(); err != nil {
		t.Fatal(err)
	}
	p2 := Placement(c, 7)
	if len(p1.Nets) != len(p2.Nets) {
		t.Fatal("same seed should give same instance")
	}
	for i := range p1.Nets {
		if len(p1.Nets[i].Cells) != len(p2.Nets[i].Cells) {
			t.Fatal("net structure differs between same-seed runs")
		}
	}
	p3 := Placement(c, 8)
	same := len(p1.Nets) == len(p3.Nets)
	if same {
		diff := false
		for i := range p1.Nets {
			if len(p1.Nets[i].Cells) != len(p3.Nets[i].Cells) ||
				(len(p1.Nets[i].Cells) > 0 && p1.Nets[i].Cells[0] != p3.Nets[i].Cells[0]) {
				diff = true
				break
			}
		}
		if !diff {
			t.Error("different seeds gave identical instances")
		}
	}
}

func TestPlacementFlowEndToEnd(t *testing.T) {
	c := Suite()[0]
	p := Placement(c, 3)
	pl, err := place.Quadratic(p, place.QuadraticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	leg, err := place.Legalize(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	if err := place.CheckLegal(p, leg); err != nil {
		t.Fatal(err)
	}
}

func TestRoutingInstance(t *testing.T) {
	c := Suite()[0]
	p := Placement(c, 3)
	pl, err := place.Quadratic(p, place.QuadraticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	leg, err := place.Legalize(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	g, nets := Routing(c, leg, p, 3, 0.02)
	if len(nets) < c.Nets/2 {
		t.Fatalf("only %d of %d nets materialized", len(nets), c.Nets)
	}
	res := route.RouteAll(g.Clone(), nets, route.Opts{Alg: route.AStar, Order: route.OrderShortFirst, RipupRounds: 10})
	completion := float64(len(res.Paths)) / float64(len(nets))
	if completion < 0.9 {
		t.Errorf("completion rate %.2f too low (failed %d)", completion, len(res.Failed))
	}
}

func TestNetworkGenerator(t *testing.T) {
	nw := Network(NetworkSpec{Name: "synth", Inputs: 8, Nodes: 40, Outputs: 4}, 5)
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	if len(nw.Nodes) != 40 || len(nw.Outputs) != 4 {
		t.Errorf("shape: %d nodes, %d outputs", len(nw.Nodes), len(nw.Outputs))
	}
	// Must be evaluable.
	in := map[string]bool{}
	for _, pi := range nw.Inputs {
		in[pi] = true
	}
	if _, err := nw.Eval(in); err != nil {
		t.Fatal(err)
	}
	// Deterministic by seed.
	nw2 := Network(NetworkSpec{Name: "synth", Inputs: 8, Nodes: 40, Outputs: 4}, 5)
	if nw.Literals() != nw2.Literals() {
		t.Error("same seed should give identical network")
	}
}
