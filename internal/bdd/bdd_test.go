package bdd

import (
	"math/rand"
	"testing"

	"vlsicad/internal/cube"
)

func TestTerminals(t *testing.T) {
	m := New(3)
	if m.False() != FalseNode || m.True() != TrueNode {
		t.Fatal("terminal handles wrong")
	}
	if !m.IsTerminal(FalseNode) || m.IsTerminal(m.Var(0)) {
		t.Fatal("IsTerminal wrong")
	}
}

func TestCanonicity(t *testing.T) {
	m := New(3)
	a, b := m.Var(0), m.Var(1)
	// a AND b built two ways must be the same node.
	f := m.And(a, b)
	g := m.ITE(b, a, FalseNode)
	if f != g {
		t.Errorf("canonicity violated: %d vs %d", f, g)
	}
	// Double negation.
	if m.Not(m.Not(f)) != f {
		t.Error("double negation not identity")
	}
	// a XOR a = 0.
	if m.Xor(a, a) != FalseNode {
		t.Error("a XOR a != 0")
	}
}

func TestDeMorgan(t *testing.T) {
	m := New(2)
	a, b := m.Var(0), m.Var(1)
	if m.Not(m.And(a, b)) != m.Or(m.Not(a), m.Not(b)) {
		t.Error("De Morgan AND failed")
	}
	if m.Not(m.Or(a, b)) != m.And(m.Not(a), m.Not(b)) {
		t.Error("De Morgan OR failed")
	}
}

func TestEvalAgainstTruthTable(t *testing.T) {
	m := New(4)
	env := NewEnv(m)
	f := MustParse(env, "(a & b) ^ (c | ~d)")
	names := env.Names()
	assign := make([]bool, 4)
	for x := 0; x < 16; x++ {
		get := func(n string) bool { return assign[names[n]] }
		for i := range assign {
			assign[i] = x&(1<<uint(i)) != 0
		}
		want := (get("a") && get("b")) != (get("c") || !get("d"))
		if got := m.Eval(f, assign); got != want {
			t.Errorf("assign %04b: got %v want %v", x, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	m := New(2)
	env := NewEnv(m)
	for _, bad := range []string{"", "a &", "(a", "a b c", "a ) b", "@"} {
		if _, err := Parse(env, bad); err == nil && bad == "a b c" {
			// "a b c" needs 3 vars but manager has 2.
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
	if _, err := Parse(NewEnv(New(1)), "x | y"); err == nil {
		t.Error("expected out-of-variables error")
	}
	fixed := &Env{m: m, vars: map[string]int{"a": 0}}
	if _, err := Parse(fixed, "a & b"); err == nil {
		t.Error("expected unknown-variable error with fixed env")
	}
}

func TestApostropheComplement(t *testing.T) {
	m := New(2)
	env := NewEnv(m)
	f := MustParse(env, "a b' + a' b")
	g := MustParse(env, "a ^ b")
	if f != g {
		t.Error("a b' + a' b should equal a ^ b")
	}
}

func TestRestrictAndCompose(t *testing.T) {
	m := New(3)
	env := NewEnv(m)
	f := MustParse(env, "a & b | c")
	names := env.Names()
	a, b, c := names["a"], names["b"], names["c"]
	// f|a=1 = b | c.
	if m.Restrict(f, a, true) != MustParse(env, "b | c") {
		t.Error("Restrict a=1 wrong")
	}
	// f|a=0 = c.
	if m.Restrict(f, a, false) != m.Var(c) {
		t.Error("Restrict a=0 wrong")
	}
	// Compose b := c into f gives a&c | c = c ... wait: a&c|c = c.
	if m.Compose(f, b, m.Var(c)) != m.Var(c) {
		t.Error("Compose wrong")
	}
}

func TestQuantifiers(t *testing.T) {
	m := New(3)
	env := NewEnv(m)
	f := MustParse(env, "a & b | ~a & c")
	names := env.Names()
	a, b, c := names["a"], names["b"], names["c"]
	// ∃a f = b | c.
	if m.Exists(f, a) != m.Or(m.Var(b), m.Var(c)) {
		t.Error("Exists wrong")
	}
	// ∀a f = b & c.
	if m.ForAll(f, a) != m.And(m.Var(b), m.Var(c)) {
		t.Error("ForAll wrong")
	}
	// Quantifying all variables of a satisfiable non-tautology.
	if m.Exists(f, a, b, c) != TrueNode {
		t.Error("Exists over all vars should be 1")
	}
	if m.ForAll(f, a, b, c) != FalseNode {
		t.Error("ForAll over all vars should be 0")
	}
}

func TestBooleanDifferenceBDD(t *testing.T) {
	m := New(2)
	env := NewEnv(m)
	f := MustParse(env, "a ^ b")
	if m.BooleanDifference(f, env.Names()["a"]) != TrueNode {
		t.Error("∂(a^b)/∂a should be 1")
	}
	g := MustParse(env, "b")
	if m.BooleanDifference(g, env.Names()["a"]) != FalseNode {
		t.Error("∂b/∂a should be 0")
	}
}

func TestSatCount(t *testing.T) {
	m := New(3)
	env := NewEnv(m)
	cases := []struct {
		expr string
		want float64
	}{
		{"a", 4}, {"a & b", 2}, {"a | b", 6}, {"a ^ b", 4},
		{"a & b & c", 1}, {"1", 8}, {"0", 0},
	}
	for _, tc := range cases {
		f := MustParse(env, tc.expr)
		if got := m.SatCount(f); got != tc.want {
			t.Errorf("SatCount(%s) = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestAnySatAllSat(t *testing.T) {
	m := New(3)
	env := NewEnv(m)
	f := MustParse(env, "a & ~b")
	assign, ok := m.AnySat(f)
	if !ok {
		t.Fatal("a & ~b is satisfiable")
	}
	full := make([]bool, 3)
	for v, val := range assign {
		full[v] = val == 1
	}
	if !m.Eval(f, full) {
		t.Error("AnySat returned non-satisfying assignment")
	}
	if _, ok := m.AnySat(FalseNode); ok {
		t.Error("AnySat(0) should fail")
	}
	if got := len(m.AllSat(TrueNode, 0)); got != 1 {
		t.Errorf("AllSat(1) = %d cubes, want 1", got)
	}
	// Minterms of a&~b over 3 vars: a=1,b=0,c free -> {1, 5}.
	ms := m.Minterms(f)
	if len(ms) != 2 || ms[0] != 1 || ms[1] != 5 {
		t.Errorf("Minterms = %v, want [1 5]", ms)
	}
}

func TestSupport(t *testing.T) {
	m := New(4)
	env := NewEnv(m)
	f := MustParse(env, "a & c")
	supp := m.Support(f)
	names := env.Names()
	if len(supp) != 2 || supp[0] != names["a"] || supp[1] != names["c"] {
		t.Errorf("Support = %v", supp)
	}
}

func TestGC(t *testing.T) {
	m := New(8)
	env := NewEnv(m)
	keep := MustParse(env, "a & b | c & d")
	m.Protect(keep)
	// Build garbage.
	for i := 0; i < 50; i++ {
		MustParse(env, "e ^ f ^ g ^ h")
	}
	before := m.Size()
	freed := m.GC()
	if freed <= 0 {
		t.Errorf("GC freed %d nodes, want > 0 (size before %d)", freed, before)
	}
	// keep must still be valid.
	if m.NodeCount(keep) == 0 {
		t.Error("protected node lost")
	}
	// Rebuilding the kept function must return the same handle.
	if MustParse(env, "a & b | c & d") != keep {
		t.Error("canonicity broken after GC")
	}
}

func TestGCReusesSlots(t *testing.T) {
	m := New(4)
	env := NewEnv(m)
	f := MustParse(env, "a&b|c&d")
	m.Protect(f)
	m.GC()
	sizeAfter := m.Size()
	// New construction should reuse freed slots rather than grow.
	MustParse(env, "a|b")
	if m.Size() > sizeAfter+4 {
		t.Errorf("size grew from %d to %d; free list not reused", sizeAfter, m.Size())
	}
}

func TestOrderSensitivityComparator(t *testing.T) {
	// The course's classic: f = (a1≡b1)(a2≡b2)...(aw≡bw).
	w := 6
	build := func(order []int) int {
		m, err := NewWithOrder(2*w, order)
		if err != nil {
			t.Fatal(err)
		}
		f := m.True()
		for i := 0; i < w; i++ {
			f = m.And(f, m.Xnor(m.Var(i), m.Var(w+i)))
		}
		return m.NodeCount(f)
	}
	good := build(InterleavedOrder(w))
	bad := build(SeparatedOrder(w))
	if good >= bad {
		t.Errorf("interleaved order (%d nodes) should beat separated (%d)", good, bad)
	}
	// Interleaved is linear: 3w+2 nodes.
	if good != 3*w+2 {
		t.Errorf("interleaved comparator = %d nodes, want %d", good, 3*w+2)
	}
}

func TestTransferPreservesFunction(t *testing.T) {
	src := New(4)
	env := NewEnv(src)
	f := MustParse(env, "(a|b) & (c^d)")
	dst, err := NewWithOrder(4, []int{3, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	g := Transfer(dst, src, f)
	assign := make([]bool, 4)
	for x := 0; x < 16; x++ {
		for i := range assign {
			assign[i] = x&(1<<uint(i)) != 0
		}
		if src.Eval(f, assign) != dst.Eval(g, assign) {
			t.Fatalf("Transfer changed function at %04b", x)
		}
	}
}

func TestSiftImprovesComparator(t *testing.T) {
	w := 4
	m, _ := NewWithOrder(2*w, SeparatedOrder(w))
	f := m.True()
	for i := 0; i < w; i++ {
		f = m.And(f, m.Xnor(m.Var(i), m.Var(w+i)))
	}
	before := m.NodeCount(f)
	order, cost := Sift(m, []Node{f})
	if cost >= before {
		t.Errorf("sifting did not improve: before %d, after %d", before, cost)
	}
	if c := OrderCost(m, []Node{f}, order); c != cost {
		t.Errorf("reported cost %d != recomputed %d", cost, c)
	}
}

func TestCoverBridge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(4)
		f := cube.NewCover(n)
		for k := 0; k < rng.Intn(5); k++ {
			c := cube.NewCube(n)
			for v := 0; v < n; v++ {
				switch rng.Intn(3) {
				case 0:
					c[v] = cube.Pos
				case 1:
					c[v] = cube.Neg
				}
			}
			f.Add(c)
		}
		m := New(n)
		node := FromCover(m, f)
		assign := make([]bool, n)
		for x := 0; x < 1<<uint(n); x++ {
			for i := range assign {
				assign[i] = x&(1<<uint(i)) != 0
			}
			if m.Eval(node, assign) != f.Eval(assign) {
				t.Fatalf("iter %d: FromCover mismatch at %b", iter, x)
			}
		}
		// Round trip.
		back := ToCover(m, node, n)
		if !cube.Equal(f, back) {
			t.Fatalf("iter %d: ToCover not equivalent", iter)
		}
	}
}

func TestFormat(t *testing.T) {
	m := New(2)
	env := NewEnv(m)
	if got := m.Format(FalseNode); got != "0" {
		t.Errorf("Format(0) = %q", got)
	}
	if got := m.Format(TrueNode); got != "1" {
		t.Errorf("Format(1) = %q", got)
	}
	f := MustParse(env, "a & b")
	if got := m.Format(f); got != "a b" {
		t.Errorf("Format(a&b) = %q", got)
	}
}

func TestPropertyIteVsCover(t *testing.T) {
	// Cross-check BDD ops against the URP cover package on random
	// functions.
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		n := 2 + rng.Intn(3)
		mk := func() *cube.Cover {
			f := cube.NewCover(n)
			for k := 0; k < 1+rng.Intn(4); k++ {
				c := cube.NewCube(n)
				for v := 0; v < n; v++ {
					switch rng.Intn(3) {
					case 0:
						c[v] = cube.Pos
					case 1:
						c[v] = cube.Neg
					}
				}
				f.Add(c)
			}
			return f
		}
		fc, gc := mk(), mk()
		m := New(n)
		fb, gb := FromCover(m, fc), FromCover(m, gc)
		checks := []struct {
			name string
			b    Node
			c    *cube.Cover
		}{
			{"and", m.And(fb, gb), fc.And(gc)},
			{"or", m.Or(fb, gb), fc.Or(gc)},
			{"xor", m.Xor(fb, gb), cube.Xor(fc, gc)},
			{"not", m.Not(fb), fc.Complement()},
		}
		assign := make([]bool, n)
		for _, chk := range checks {
			for x := 0; x < 1<<uint(n); x++ {
				for i := range assign {
					assign[i] = x&(1<<uint(i)) != 0
				}
				if m.Eval(chk.b, assign) != chk.c.Eval(assign) {
					t.Fatalf("iter %d: %s mismatch at %b", iter, chk.name, x)
				}
			}
		}
	}
}

func TestNodeCountSmall(t *testing.T) {
	m := New(1)
	if m.NodeCount(TrueNode) != 1 {
		t.Error("NodeCount(1) != 1")
	}
	if m.NodeCount(m.Var(0)) != 3 {
		t.Error("NodeCount(x) != 3")
	}
}

// MustParse is Parse that panics on error.
func MustParse(env *Env, src string) Node {
	n, err := Parse(env, src)
	if err != nil {
		panic(err)
	}
	return n
}

// InterleavedOrder returns the order a0 b0 a1 b1 ... for two buses of
// the given width, assuming variables 0..w-1 are bus A and w..2w-1 are
// bus B — the course's comparator example.
func InterleavedOrder(width int) []int {
	out := make([]int, 0, 2*width)
	for i := 0; i < width; i++ {
		out = append(out, i, width+i)
	}
	return out
}

// SeparatedOrder returns a0 a1 ... b0 b1 ... (the bad order for the
// comparator).
func SeparatedOrder(width int) []int {
	out := make([]int, 0, 2*width)
	for i := 0; i < 2*width; i++ {
		out = append(out, i)
	}
	return out
}
