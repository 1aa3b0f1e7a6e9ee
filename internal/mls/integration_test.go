package mls

import (
	"fmt"
	"reflect"
	"testing"

	"vlsicad/internal/bench"
	"vlsicad/internal/cube"
	"vlsicad/internal/netlist"
)

// Integration: the full synthesis pipeline on randomly generated
// multi-level networks must preserve the function (checked with both
// formal engines) and never grow the literal count.
func TestRandomNetworksSurviveSynthesisPipeline(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			nw := bench.Network(bench.NetworkSpec{
				Name: "r", Inputs: 6, Nodes: 25, Outputs: 3,
			}, seed)
			orig := nw.Clone()
			before := nw.Literals()

			ExtractKernels(nw, "t", 8)
			Simplify(nw)
			Resubstitute(nw)
			SweepConstants(nw)
			if _, err := FullSimplify(nw, 8); err != nil {
				t.Fatal(err)
			}

			if nw.Literals() > before {
				t.Errorf("pipeline grew literals %d -> %d", before, nw.Literals())
			}
			eqB, err := netlist.EquivalentBDD(orig, nw)
			if err != nil {
				t.Fatal(err)
			}
			if !eqB {
				t.Fatal("BDD equivalence lost")
			}
			eqS, witness, err := netlist.EquivalentSAT(orig, nw)
			if err != nil {
				t.Fatal(err)
			}
			if !eqS {
				t.Fatalf("SAT equivalence lost (witness %v)", witness)
			}
		})
	}
}

// TestDecomposeContainedCubes: a cover with a cube contained in
// another (a b' + a) is the wire f = a once single-cube containment
// drops a b', so Decompose adds no node for it. On it and on random
// networks every node ends with at most two fanins and the function
// is unchanged.
func TestDecomposeContainedCubes(t *testing.T) {
	cases := map[string]*netlist.Network{"contained": parse(t, `
.model t
.inputs a b
.outputs f
.names a b f
10 1
1- 1
.end
`)}
	for seed := int64(1); seed <= 4; seed++ {
		cases[fmt.Sprintf("seed%d", seed)] = bench.Network(bench.NetworkSpec{
			Name: "r", Inputs: 6, Nodes: 25, Outputs: 3,
		}, seed)
	}
	for name, nw := range cases {
		t.Run(name, func(t *testing.T) {
			orig := nw.Clone()
			added := Decompose(nw)
			for n, node := range nw.Nodes {
				if len(node.Fanins) > 2 {
					t.Errorf("node %s has %d fanins", n, len(node.Fanins))
				}
			}
			if name == "contained" {
				f := nw.Nodes["f"]
				wire, err := cube.ParseCover([]string{"1"})
				if err != nil {
					t.Fatal(err)
				}
				if added != 0 || len(nw.Nodes) != 1 || !reflect.DeepEqual(f.Fanins, []string{"a"}) ||
					!reflect.DeepEqual(f.Cover, wire) {
					t.Errorf("added %d nodes, f = %v %v; want f = a and no added node", added, f.Fanins, f.Cover)
				}
			}
			checkEquiv(t, orig, nw, "decomp")
		})
	}
}
