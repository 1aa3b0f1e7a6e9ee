package mls

import (
	"strings"
	"testing"

	"vlsicad/internal/netlist"
)

// lit builds an algebraic literal for variable v (neg complements).
func lit(v int, neg bool) ALit {
	l := ALit(2 * v)
	if neg {
		l++
	}
	return l
}

func TestDivideTextbook(t *testing.T) {
	// The course's classic: F = ac + ad + bc + bd + e,
	// D = a + b → Q = c + d, R = e.
	a, b, c, d, e := lit(0, false), lit(1, false), lit(2, false), lit(3, false), lit(4, false)
	f := ACover{{a, c}, {a, d}, {b, c}, {b, d}, {e}}
	div := ACover{{a}, {b}}
	q, r := divide(f.normalize(), div.normalize())
	if coverKey(q) != coverKey(ACover{{c}, {d}}) {
		t.Errorf("Q = %v, want c + d", q)
	}
	if coverKey(r.normalize()) != coverKey(ACover{{e}}) {
		t.Errorf("R = %v, want e", r)
	}
}

func TestDivideNoQuotient(t *testing.T) {
	a, b, c := lit(0, false), lit(1, false), lit(2, false)
	f := ACover{{a, b}}
	q, r := divide(f.normalize(), ACover{{c}})
	if len(q) != 0 {
		t.Errorf("Q = %v, want empty", q)
	}
	if r.Lits() != 2 {
		t.Errorf("R should be f itself")
	}
}

func TestDividePhases(t *testing.T) {
	// Algebraic model: a and a' are distinct. F = a'b, D = a → no quotient.
	f := ACover{{lit(0, true), lit(1, false)}}
	q, _ := divide(f.normalize(), ACover{{lit(0, false)}})
	if len(q) != 0 {
		t.Error("a must not divide a'b in the algebraic model")
	}
}

func TestMakeCubeFree(t *testing.T) {
	a, b, c := lit(0, false), lit(1, false), lit(2, false)
	f := ACover{{a, b}, {a, c}}
	cf, common := MakeCubeFree(f)
	if len(common) != 1 || common[0] != a {
		t.Errorf("common cube = %v, want a", common)
	}
	if !IsCubeFree(cf) {
		t.Error("result should be cube-free")
	}
	if !IsCubeFree(ACover{{a}, {b}}) {
		t.Error("a + b is cube-free")
	}
	if IsCubeFree(f) {
		t.Error("ab + ac is not cube-free")
	}
}

func TestKernelsTextbook(t *testing.T) {
	// F = adf + aef + bdf + bef + cdf + cef + g
	//   = (a+b+c)(d+e)f + g.
	a, b, c, d, e, f0, g := lit(0, false), lit(1, false), lit(2, false),
		lit(3, false), lit(4, false), lit(5, false), lit(6, false)
	F := ACover{{a, d, f0}, {a, e, f0}, {b, d, f0}, {b, e, f0}, {c, d, f0}, {c, e, f0}, {g}}
	ks := Kernels(F)
	keys := map[string]bool{}
	for _, k := range ks {
		keys[coverKey(k.K)] = true
	}
	if !keys[coverKey(ACover{{a}, {b}, {c}})] {
		t.Error("missing kernel a+b+c")
	}
	if !keys[coverKey(ACover{{d}, {e}})] {
		t.Error("missing kernel d+e")
	}
	// F itself is cube-free (g has no common literal), so it is the
	// level-0 kernel.
	if !keys[coverKey(F.Clone().normalize())] {
		t.Error("missing the cover itself as a kernel")
	}
}

func TestKernelsNone(t *testing.T) {
	// A single cube has no kernels beyond nothing.
	a, b := lit(0, false), lit(1, false)
	ks := Kernels(ACover{{a, b}})
	if len(ks) != 0 {
		t.Errorf("single cube kernels = %v", ks)
	}
}

func TestFactorSavesLiterals(t *testing.T) {
	// ac + ad + bc + bd = (a+b)(c+d): 8 SOP literals, 4 factored.
	a, b, c, d := lit(0, false), lit(1, false), lit(2, false), lit(3, false)
	f := ACover{{a, c}, {a, d}, {b, c}, {b, d}}
	expr := Factor(f)
	if got := expr.Lits(); got != 4 {
		t.Errorf("factored lits = %d, want 4", got)
	}
	names := []string{"a", "b", "c", "d"}
	nameOf := func(l ALit) string {
		n := names[l.AVar()]
		if l.Neg() {
			n += "'"
		}
		return n
	}
	s := expr.Render(nameOf)
	if !strings.Contains(s, "a + b") || !strings.Contains(s, "c + d") {
		t.Errorf("render = %q", s)
	}
}

func TestFactorPreservesFunction(t *testing.T) {
	// Check Factor via re-expansion: evaluate both on all assignments.
	a, b, c := lit(0, false), lit(1, false), lit(2, true) // c is x3'
	f := ACover{{a, b}, {a, c}, {b, c}}
	expr := Factor(f)
	for m := 0; m < 8; m++ {
		assign := []bool{m&1 != 0, m&2 != 0, m&4 != 0}
		if evalExpr(expr, assign) != evalACover(f, assign) {
			t.Fatalf("factor changed function at %03b", m)
		}
	}
}

func evalACover(f ACover, assign []bool) bool {
	for _, c := range f {
		ok := true
		for _, l := range c {
			v := assign[l.AVar()]
			if l.Neg() {
				v = !v
			}
			if !v {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func evalExpr(e Expr, assign []bool) bool {
	switch ex := e.(type) {
	case LitExpr:
		v := assign[ex.L.AVar()]
		if ex.L.Neg() {
			v = !v
		}
		return v
	case AndExpr:
		for _, f := range ex.Factors {
			if !evalExpr(f, assign) {
				return false
			}
		}
		return true
	case OrExpr:
		for _, t := range ex.Terms {
			if evalExpr(t, assign) {
				return true
			}
		}
		return false
	}
	return false
}

const twoOutBLIF = `
.model demo
.inputs a b c d e
.outputs x y
.names a b c d x
11-- 1
--11 1
.names a b c d e y
11--- 1
--11- 1
----1 1
.end
`

func parse(t *testing.T, src string) *netlist.Network {
	t.Helper()
	nw, err := netlist.ParseBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func checkEquiv(t *testing.T, a, b *netlist.Network, what string) {
	t.Helper()
	eq, err := netlist.EquivalentBDD(a, b)
	if err != nil {
		t.Fatalf("%s: equivalence check: %v", what, err)
	}
	if !eq {
		t.Fatalf("%s changed the network function", what)
	}
}

func TestExtractKernelsSharesDivisor(t *testing.T) {
	nw := parse(t, twoOutBLIF)
	orig := nw.Clone()
	created := ExtractKernels(nw, "t", 10)
	if created == 0 {
		t.Fatal("expected at least one extraction (ab+cd is shared)")
	}
	checkEquiv(t, orig, nw, "fx")
	after := NetworkStats(nw)
	before := NetworkStats(orig)
	if after.SOPLits >= before.SOPLits {
		t.Errorf("extraction should save literals: %d -> %d", before.SOPLits, after.SOPLits)
	}
}

func TestEliminateInverse(t *testing.T) {
	nw := parse(t, twoOutBLIF)
	orig := nw.Clone()
	ExtractKernels(nw, "t", 10)
	// Eliminating with a huge threshold collapses everything back.
	n := Eliminate(nw, 1000)
	if n == 0 {
		t.Error("eliminate should collapse the extracted nodes")
	}
	checkEquiv(t, orig, nw, "eliminate")
}

func TestSimplifyKeepsFunction(t *testing.T) {
	src := `
.model red
.inputs a b c
.outputs f
.names a b c f
11- 1
1-1 1
-11 1
110 1
.end
`
	nw := parse(t, src)
	orig := nw.Clone()
	saved := Simplify(nw)
	if saved <= 0 {
		t.Error("redundant cover should shrink")
	}
	checkEquiv(t, orig, nw, "simplify")
}

func TestFullSimplifyUsesSDC(t *testing.T) {
	// g = a·b; f reads both g and a,b: pattern g=1,a=0 is impossible,
	// so f's cover can use that as a don't care.
	src := `
.model sdc
.inputs a b
.outputs f
.names a b g
11 1
.names a b g f
111 1
110 1
.end
`
	nw := parse(t, src)
	orig := nw.Clone()
	if _, err := FullSimplify(nw, 8); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, nw, "full_simplify")
	// f should have shrunk: with SDCs, f = g (or ab).
	f := nw.Nodes["f"]
	if f.Cover.Literals() > 2 {
		t.Errorf("f still has %d literals: %v", f.Cover.Literals(), f.Cover)
	}
}

func TestSweepConstants(t *testing.T) {
	src := `
.model k
.inputs a
.outputs f
.names one
1
.names a one f
11 1
.end
`
	nw := parse(t, src)
	orig := nw.Clone()
	removed := SweepConstants(nw)
	if removed == 0 {
		t.Error("constant node should be swept")
	}
	checkEquiv(t, orig, nw, "sweep")
	if len(nw.Nodes["f"].Fanins) != 1 {
		t.Errorf("f fanins = %v, want just a", nw.Nodes["f"].Fanins)
	}
}

func TestDecompose(t *testing.T) {
	nw := parse(t, twoOutBLIF)
	orig := nw.Clone()
	added := Decompose(nw)
	if added == 0 {
		t.Error("expected new nodes")
	}
	checkEquiv(t, orig, nw, "decomp")
	for name, n := range nw.Nodes {
		if len(n.Fanins) > 2 {
			t.Errorf("node %s still has %d fanins", name, len(n.Fanins))
		}
	}
}

func TestDecomposeXor(t *testing.T) {
	src := `
.model x
.inputs a b c
.outputs f
.names a b c f
100 1
010 1
001 1
111 1
.end
`
	nw := parse(t, src)
	orig := nw.Clone()
	Decompose(nw)
	checkEquiv(t, orig, nw, "decomp xor")
}

func TestScriptSession(t *testing.T) {
	nw := parse(t, twoOutBLIF)
	orig := nw.Clone()
	var out strings.Builder
	s := NewSession(nw, &out)
	script := `
# standard course script
print_stats
fx
simplify
sweep
print_stats
factor
`
	if err := s.RunScript(script); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, nw, "script")
	txt := out.String()
	if !strings.Contains(txt, "nodes=") || !strings.Contains(txt, "fx:") {
		t.Errorf("transcript missing content:\n%s", txt)
	}
}

func TestScriptErrors(t *testing.T) {
	nw := parse(t, twoOutBLIF)
	s := NewSession(nw, &strings.Builder{})
	for _, bad := range []string{"bogus", "eliminate", "eliminate x", "fx x", "full_simplify x"} {
		if err := s.Run(bad); err == nil {
			t.Errorf("command %q should fail", bad)
		}
	}
}

func TestNetworkStats(t *testing.T) {
	nw := parse(t, twoOutBLIF)
	st := NetworkStats(nw)
	if st.Nodes != 2 {
		t.Errorf("nodes = %d", st.Nodes)
	}
	if st.SOPLits != 4+5 {
		t.Errorf("sop lits = %d, want 9", st.SOPLits)
	}
	if st.FactoredLits > st.SOPLits {
		t.Errorf("factored (%d) should be <= SOP (%d)", st.FactoredLits, st.SOPLits)
	}
}
