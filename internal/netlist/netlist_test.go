package netlist

import (
	"strings"
	"testing"

	"vlsicad/internal/cube"
)

const fullAdderBLIF = `
# one-bit full adder
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

func parseBLIF(t *testing.T, src string) *Network {
	t.Helper()
	nw, err := ParseBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseBLIF: %v", err)
	}
	return nw
}

func TestParseFullAdder(t *testing.T) {
	nw := parseBLIF(t, fullAdderBLIF)
	if nw.Name != "adder" {
		t.Errorf("name = %q", nw.Name)
	}
	if len(nw.Inputs) != 3 || len(nw.Outputs) != 2 || len(nw.Nodes) != 2 {
		t.Fatalf("shape: %d in, %d out, %d nodes", len(nw.Inputs), len(nw.Outputs), len(nw.Nodes))
	}
	// Exhaustive functional check.
	for x := 0; x < 8; x++ {
		a, b, c := x&1 != 0, x&2 != 0, x&4 != 0
		val, err := nw.Eval(map[string]bool{"a": a, "b": b, "cin": c})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, v := range []bool{a, b, c} {
			if v {
				n++
			}
		}
		if val["sum"] != (n%2 == 1) {
			t.Errorf("sum(%v %v %v) = %v", a, b, c, val["sum"])
		}
		if val["cout"] != (n >= 2) {
			t.Errorf("cout(%v %v %v) = %v", a, b, c, val["cout"])
		}
	}
}

func TestBLIFRoundTrip(t *testing.T) {
	nw := parseBLIF(t, fullAdderBLIF)
	var buf strings.Builder
	if err := WriteBLIF(&buf, nw); err != nil {
		t.Fatal(err)
	}
	nw2, err := ParseBLIF(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	eq, err := EquivalentBDD(nw, nw2)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("round trip changed function")
	}
}

func TestOffsetCover(t *testing.T) {
	// Node defined by its off-set: f = 0 when a=1,b=1 → f = NAND.
	src := `
.model nand
.inputs a b
.outputs f
.names a b f
11 0
.end
`
	nw := parseBLIF(t, src)
	for x := 0; x < 4; x++ {
		a, b := x&1 != 0, x&2 != 0
		val, _ := nw.Eval(map[string]bool{"a": a, "b": b})
		if val["f"] != !(a && b) {
			t.Errorf("NAND(%v,%v) = %v", a, b, val["f"])
		}
	}
}

func TestConstantNodes(t *testing.T) {
	src := `
.model consts
.inputs a
.outputs one zero f
.names one
1
.names zero
.names a one f
11 1
.end
`
	nw := parseBLIF(t, src)
	val, err := nw.Eval(map[string]bool{"a": true})
	if err != nil {
		t.Fatal(err)
	}
	if !val["one"] || val["zero"] || !val["f"] {
		t.Errorf("constants wrong: %v", val)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"cycle":        ".model m\n.inputs a\n.outputs x\n.names y x\n1 1\n.names x y\n1 1\n.end",
		"undriven out": ".model m\n.inputs a\n.outputs z\n.names a f\n1 1\n.end",
		"latch":        ".model m\n.inputs a\n.outputs f\n.latch a f 0\n.end",
		"bad row":      ".model m\n.inputs a\n.outputs f\n.names a f\n1 1 1\n.end",
		"bad plane":    ".model m\n.inputs a\n.outputs f\n.names a f\n1 x\n.end",
		"mixed planes": ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n00 0\n.end",
		"stray line":   "garbage\n",
		"wrong width":  ".model m\n.inputs a b\n.outputs f\n.names a b f\n1 1\n.end",
	}
	for name, src := range cases {
		if _, err := ParseBLIF(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestTopoSortOrder(t *testing.T) {
	nw := New("chain")
	nw.AddInput("a")
	nw.AddOutput("z")
	buf := cube.NewCover(1)
	c := cube.NewCube(1)
	c[0] = cube.Pos
	buf.Add(c)
	nw.AddNode("z", []string{"m"}, buf.Clone())
	nw.AddNode("m", []string{"a"}, buf.Clone())
	order, err := nw.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0].Name != "m" || order[1].Name != "z" {
		t.Errorf("order = %v", []string{order[0].Name, order[1].Name})
	}
}

func TestSweep(t *testing.T) {
	nw := parseBLIF(t, fullAdderBLIF)
	// Add a dangling node.
	buf := cube.NewCover(1)
	c := cube.NewCube(1)
	c[0] = cube.Pos
	buf.Add(c)
	nw.AddNode("dead", []string{"a"}, buf)
	nw.AddNode("dead2", []string{"dead"}, buf.Clone())
	if removed := nw.Sweep(); removed != 2 {
		t.Errorf("Sweep removed %d, want 2", removed)
	}
	if _, ok := nw.Nodes["dead"]; ok {
		t.Error("dead node survived sweep")
	}
}

func TestFanouts(t *testing.T) {
	nw := parseBLIF(t, fullAdderBLIF)
	fo := nw.Fanouts()
	if len(fo["a"]) != 2 {
		t.Errorf("fanouts of a = %v", fo["a"])
	}
}

func TestBuildBDDs(t *testing.T) {
	nw := parseBLIF(t, fullAdderBLIF)
	m, outs, vars, err := nw.BuildBDDs()
	if err != nil {
		t.Fatal(err)
	}
	// sum should be a ⊕ b ⊕ cin.
	want := m.Xor(m.Xor(m.Var(vars["a"]), m.Var(vars["b"])), m.Var(vars["cin"]))
	if outs["sum"] != want {
		t.Error("sum BDD is not a^b^cin")
	}
	if got := m.SatCount(outs["cout"]); got != 4 {
		t.Errorf("SatCount(cout) = %v, want 4", got)
	}
}

func TestEquivalenceBDDAndSAT(t *testing.T) {
	nw := parseBLIF(t, fullAdderBLIF)
	// An alternative sum implementation via XOR chain in SOP per node.
	alt := `
.model adder2
.inputs a b cin
.outputs sum cout
.names a b t
10 1
01 1
.names t cin sum
10 1
01 1
.names a b cin cout
11- 1
-11 1
1-1 1
.end
`
	nw2 := parseBLIF(t, alt)
	eq, err := EquivalentBDD(nw, nw2)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("BDD equivalence should hold")
	}
	eq2, witness, err := EquivalentSAT(nw, nw2)
	if err != nil {
		t.Fatal(err)
	}
	if !eq2 {
		t.Errorf("SAT equivalence should hold (witness %v)", witness)
	}
	// Now break it: flip cout to AND only.
	broken := parseBLIF(t, `
.model bad
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cout
11 1
.names cin nothing
1 1
.end
`)
	broken.Sweep()
	eq3, witness3, err := EquivalentSAT(nw, broken)
	if err != nil {
		t.Fatal(err)
	}
	if eq3 {
		t.Error("broken adder should not be equivalent")
	}
	// Witness must actually distinguish.
	v1, _ := nw.Eval(witness3)
	v2, _ := broken.Eval(witness3)
	if v1["sum"] == v2["sum"] && v1["cout"] == v2["cout"] {
		t.Errorf("witness %v does not distinguish", witness3)
	}
	eqB, err := EquivalentBDD(nw, broken)
	if err != nil {
		t.Fatal(err)
	}
	if eqB {
		t.Error("BDD check should also reject broken adder")
	}
}

// TestEquivalentBDDNodeNameCollision: a's internal node is named
// "__b_o" and b computes o directly. Both networks must be built in
// their own name spaces, so b's o cannot overwrite a's __b_o.
func TestEquivalentBDDNodeNameCollision(t *testing.T) {
	a := parseBLIF(t, ".model a\n.inputs x y\n.outputs o\n.names x y __b_o\n11 1\n.names __b_o o\n1 1\n.end")
	b := parseBLIF(t, ".model b\n.inputs x y\n.outputs o\n.names x y o\n1- 1\n-1 1\n.end")
	eqB, err := EquivalentBDD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	eqS, witness, err := EquivalentSAT(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if eqB || eqS {
		t.Errorf("x AND y vs x OR y: EquivalentBDD=%v EquivalentSAT=%v, want false, false", eqB, eqS)
	}
	if va, _ := a.Eval(witness); va["o"] == (witness["x"] || witness["y"]) {
		t.Errorf("SAT witness %v does not distinguish", witness)
	}
}

func TestInterfaceMismatch(t *testing.T) {
	a := parseBLIF(t, fullAdderBLIF)
	b := parseBLIF(t, ".model m\n.inputs x\n.outputs f\n.names x f\n1 1\n.end")
	if _, err := EquivalentBDD(a, b); err == nil {
		t.Error("interface mismatch should error")
	}
	if _, _, err := EquivalentSAT(a, b); err == nil {
		t.Error("interface mismatch should error")
	}
	undriven := a.Clone()
	delete(undriven.Nodes, "cout")
	if _, err := EquivalentBDD(a, undriven); err == nil {
		t.Error("undriven output should error")
	}
	if _, _, err := EquivalentSAT(a, undriven); err == nil {
		t.Error("undriven output should error")
	}
}

func TestLiteralsAndSignals(t *testing.T) {
	nw := parseBLIF(t, fullAdderBLIF)
	if lit := nw.Literals(); lit != 12+6 {
		t.Errorf("Literals = %d, want 18", lit)
	}
	sigs := nw.Signals()
	if len(sigs) != 5 {
		t.Errorf("Signals = %v", sigs)
	}
}

func TestEvalMissingInput(t *testing.T) {
	nw := parseBLIF(t, fullAdderBLIF)
	if _, err := nw.Eval(map[string]bool{"a": true}); err == nil {
		t.Error("missing inputs should error")
	}
}

func TestContinuationLines(t *testing.T) {
	src := ".model m\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end"
	nw := parseBLIF(t, src)
	if len(nw.Inputs) != 2 {
		t.Errorf("continuation line not joined: %v", nw.Inputs)
	}
}
