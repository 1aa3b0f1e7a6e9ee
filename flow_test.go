package vlsicad

import (
	"fmt"
	"strings"
	"testing"

	"vlsicad/internal/bench"
	"vlsicad/internal/route"
)

const adderBLIF = `
.model adder
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
`

func TestRunFlowAdder(t *testing.T) {
	f, err := RunFlow(strings.NewReader(adderBLIF), FlowOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equivalent {
		t.Error("synthesis should be verified equivalent")
	}
	if f.Area <= 0 || len(f.Mapping.Matches) == 0 {
		t.Error("mapping missing")
	}
	if f.HPWL <= 0 {
		t.Error("no wirelength")
	}
	if len(f.Routing.Failed) > 0 {
		t.Errorf("failed nets: %v", f.Routing.Failed)
	}
	if f.CriticalDelay <= 0 {
		t.Error("no timing")
	}
}

func TestRunFlowWithWireModelSlower(t *testing.T) {
	base, err := RunFlow(strings.NewReader(adderBLIF), FlowOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wired, err := RunFlow(strings.NewReader(adderBLIF), FlowOpts{WireModel: true})
	if err != nil {
		t.Fatal(err)
	}
	if wired.CriticalDelay <= base.CriticalDelay {
		t.Errorf("wire model should add delay: %g vs %g", wired.CriticalDelay, base.CriticalDelay)
	}
}

func TestRunFlowSynthesisSavesLiterals(t *testing.T) {
	nw := bench.Network(bench.NetworkSpec{Name: "s", Inputs: 8, Nodes: 30, Outputs: 4}, 9)
	f, err := RunFlowOnNetwork(nw, FlowOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if f.LiteralsAfter > f.LiteralsBefore {
		t.Errorf("synthesis grew literals: %d -> %d", f.LiteralsBefore, f.LiteralsAfter)
	}
	if !f.Equivalent {
		t.Error("synthesis verification failed")
	}
}

func TestRunFlowBadInput(t *testing.T) {
	if _, err := RunFlow(strings.NewReader("garbage"), FlowOpts{}); err == nil {
		t.Error("garbage BLIF should fail")
	}
}

func TestRunFlowVerifyMapping(t *testing.T) {
	f, err := RunFlow(strings.NewReader(adderBLIF), FlowOpts{VerifyMapping: true})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equivalent {
		t.Error("flow with mapping verification should succeed")
	}
}

func TestRunFlowDRCClean(t *testing.T) {
	f, err := RunFlow(strings.NewReader(adderBLIF), FlowOpts{CheckDRC: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.DRC) != 0 {
		t.Errorf("legally routed design has %d DRC violations: %v", len(f.DRC), f.DRC[0])
	}
}

// TestRunFlowGeneratedDesignsLegal flows generated designs of the
// benchmark's sizes (16 inputs; 40, 50 and 60 nodes) through quadratic
// placement, where about one net in eight fails to route and rip-up
// works hardest. The routed layout must be DRC-clean, and no path may
// touch another net's pin or share a cell with another path.
func TestRunFlowGeneratedDesignsLegal(t *testing.T) {
	for i, nodes := range []int{40, 50, 60} {
		nw := bench.Network(bench.NetworkSpec{Name: fmt.Sprintf("gen%d", nodes), Inputs: 16, Nodes: nodes, Outputs: 8}, int64(i+1))
		f, err := RunFlowOnNetwork(nw, FlowOpts{CheckDRC: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Routing.Failed) == 0 {
			t.Errorf("%s: every net routed; the design no longer exercises rip-up", nw.Name)
		}
		if len(f.DRC) != 0 {
			t.Errorf("%s: %d DRC violations, first %v", nw.Name, len(f.DRC), f.DRC[0])
		}
		pinOf := map[route.Point]string{}
		for _, n := range f.Nets {
			pinOf[n.A], pinOf[n.B] = n.Name, n.Name
		}
		used := map[route.Point]string{}
		for _, n := range f.Nets {
			for _, pt := range f.Routing.Paths[n.Name] {
				if owner, pin := pinOf[pt]; pin && owner != n.Name {
					t.Errorf("%s: net %s crosses pin %v of net %s", nw.Name, n.Name, pt, owner)
				}
				if prev, dup := used[pt]; dup {
					t.Errorf("%s: nets %s and %s share %v", nw.Name, prev, n.Name, pt)
				}
				used[pt] = n.Name
			}
		}
	}
}
