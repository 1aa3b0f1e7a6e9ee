package cube

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCover(t *testing.T, tokens ...string) *Cover {
	t.Helper()
	f, err := ParseCover(tokens)
	if err != nil {
		t.Fatalf("ParseCover(%v): %v", tokens, err)
	}
	return f
}

func TestParseCube(t *testing.T) {
	c, err := ParseCube("10-")
	if err != nil {
		t.Fatal(err)
	}
	want := Cube{Pos, Neg, DC}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("slot %d = %v, want %v", i, c[i], want[i])
		}
	}
	if _, err := ParseCube("1x0"); err == nil {
		t.Error("expected error on invalid character")
	}
	for _, row := range []string{"", "1", "0", "-", "10-", "0-1-10"} {
		c, err := ParseCube(row)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Row(); got != row {
			t.Errorf("ParseCube(%q).Row() = %q", row, got)
		}
	}
}

func TestCubeString(t *testing.T) {
	c, _ := ParseCube("10-")
	if got := c.String(); got != "[01 10 11]" {
		t.Errorf("String() = %q", got)
	}
}

func TestCubeAndContains(t *testing.T) {
	a, _ := ParseCube("1--")
	b, _ := ParseCube("-1-")
	ab := a.And(b)
	want, _ := ParseCube("11-")
	if !ab.Contains(want) || !want.Contains(ab) {
		t.Errorf("And = %v, want %v", ab, want)
	}
	if !a.Contains(ab) {
		t.Error("a should contain a AND b")
	}
	if ab.Contains(a) {
		t.Error("a AND b should not contain a")
	}
}

func TestCubeDistance(t *testing.T) {
	a, _ := ParseCube("10")
	b, _ := ParseCube("01")
	if d := a.Distance(b); d != 2 {
		t.Errorf("Distance = %d, want 2", d)
	}
	c, _ := ParseCube("11")
	if d := a.Distance(c); d != 1 {
		t.Errorf("Distance = %d, want 1", d)
	}
}

func TestVoidAndUniversal(t *testing.T) {
	u := NewCube(3)
	if !u.IsUniversal() {
		t.Error("NewCube should be universal")
	}
	v := u.Clone()
	v[1] = Void
	if !v.IsVoid() {
		t.Error("cube with 00 slot should be void")
	}
	if v.Eval([]bool{true, true, true}) {
		t.Error("void cube must evaluate false")
	}
}

func TestTautologySimple(t *testing.T) {
	// x + x' is a tautology.
	f := mustCover(t, "1", "0")
	if !f.IsTautology() {
		t.Error("x + x' should be tautology")
	}
	// x1 + x1'x2 is not.
	g := mustCover(t, "1-", "02")
	g.Cubes[1], _ = ParseCube("01")
	if g.IsTautology() {
		t.Error("x1 + x1'x2 is not a tautology")
	}
	// Classic 3-var tautology: a + a'b + a'b'.
	h := mustCover(t, "1--", "01-", "00-")
	if !h.IsTautology() {
		t.Error("a + a'b + a'b' should be tautology")
	}
	if NewCover(2).IsTautology() {
		t.Error("empty cover is not a tautology")
	}
}

func TestComplementSmall(t *testing.T) {
	f := mustCover(t, "11-")
	fc := f.Complement()
	// f OR f' must be tautology; f AND f' must be empty.
	if !f.Or(fc).IsTautology() {
		t.Error("f + f' should be tautology")
	}
	if got := f.And(fc); !got.IsEmpty() {
		t.Errorf("f AND f' = %v, want empty", got)
	}
}

func TestComplementOfEmptyAndUniversal(t *testing.T) {
	e := NewCover(2)
	if !e.Complement().IsTautology() {
		t.Error("complement of 0 should be 1")
	}
	u := Universal(2)
	if !u.Complement().IsEmpty() {
		t.Error("complement of 1 should be 0")
	}
}

// randomCover builds a random cover over n variables with k cubes.
func randomCover(rng *rand.Rand, n, k int) *Cover {
	f := NewCover(n)
	for i := 0; i < k; i++ {
		c := NewCube(n)
		for v := 0; v < n; v++ {
			switch rng.Intn(3) {
			case 0:
				c[v] = Pos
			case 1:
				c[v] = Neg
			}
		}
		f.Add(c)
	}
	return f
}

func truthTable(f *Cover) []bool {
	tt := make([]bool, 1<<uint(f.N))
	assign := make([]bool, f.N)
	for m := range tt {
		for i := 0; i < f.N; i++ {
			assign[i] = m&(1<<uint(i)) != 0
		}
		tt[m] = f.Eval(assign)
	}
	return tt
}

func TestPropertyComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(5)
		f := randomCover(rng, n, rng.Intn(6))
		fc := f.Complement()
		tf, tc := truthTable(f), truthTable(fc)
		for m := range tf {
			if tf[m] == tc[m] {
				t.Fatalf("iter %d: complement agrees with f at minterm %d\nf=%v\nf'=%v", iter, m, f, fc)
			}
		}
	}
}

func TestPropertyTautology(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(5)
		f := randomCover(rng, n, rng.Intn(8))
		want := true
		for _, v := range truthTable(f) {
			if !v {
				want = false
				break
			}
		}
		if got := f.IsTautology(); got != want {
			t.Fatalf("iter %d: IsTautology=%v, brute force=%v\n%v", iter, got, want, f)
		}
	}
}

func TestPropertyAndOrDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 150; iter++ {
		n := 1 + rng.Intn(4)
		f := randomCover(rng, n, 1+rng.Intn(4))
		g := randomCover(rng, n, 1+rng.Intn(4))
		and, or, diff := f.And(g), f.Or(g), f.Difference(g)
		tf, tg := truthTable(f), truthTable(g)
		ta, to, td := truthTable(and), truthTable(or), truthTable(diff)
		for m := range tf {
			if ta[m] != (tf[m] && tg[m]) {
				t.Fatalf("iter %d: And wrong at %d", iter, m)
			}
			if to[m] != (tf[m] || tg[m]) {
				t.Fatalf("iter %d: Or wrong at %d", iter, m)
			}
			if td[m] != (tf[m] && !tg[m]) {
				t.Fatalf("iter %d: Difference wrong at %d", iter, m)
			}
		}
	}
}

func TestPropertyCofactorShannon(t *testing.T) {
	// Shannon expansion: f = x·f_x + x'·f_x'.
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 150; iter++ {
		n := 1 + rng.Intn(4)
		f := randomCover(rng, n, 1+rng.Intn(5))
		v := rng.Intn(n)
		fp, fn := f.Cofactor(v, true), f.Cofactor(v, false)
		xv := NewCover(n)
		cv := NewCube(n)
		cv[v] = Pos
		xv.Add(cv)
		xnv := NewCover(n)
		cnv := NewCube(n)
		cnv[v] = Neg
		xnv.Add(cnv)
		rebuilt := xv.And(fp).Or(xnv.And(fn))
		if !Equal(f, rebuilt) {
			t.Fatalf("iter %d: Shannon expansion failed for var %d\n%v", iter, v, f)
		}
	}
}

func TestQuantification(t *testing.T) {
	// f = x1 x2. ∃x1 f = x2; ∀x1 f = 0.
	f := mustCover(t, "11")
	ex := f.Exists(0)
	wantEx := mustCover(t, "-1")
	if !Equal(ex, wantEx) {
		t.Errorf("Exists = %v, want %v", ex, wantEx)
	}
	fa := f.ForAll(0)
	if !fa.IsEmpty() && !Equal(fa, NewCover(2)) {
		if len(fa.Minterms()) != 0 {
			t.Errorf("ForAll = %v, want empty", fa)
		}
	}
}

func TestBooleanDifference(t *testing.T) {
	// f = x1 ⊕ x2: ∂f/∂x1 = 1.
	f := mustCover(t, "10", "01")
	bd := f.BooleanDifference(0)
	if !bd.IsTautology() {
		t.Errorf("Boolean difference of XOR should be tautology, got %v", bd)
	}
	// f = x2 alone: ∂f/∂x1 = 0.
	g := mustCover(t, "-1")
	if got := g.BooleanDifference(0); len(got.Minterms()) != 0 {
		t.Errorf("difference w.r.t. absent variable should be 0, got %v", got)
	}
}

func TestCoversAndEquivalent(t *testing.T) {
	f := mustCover(t, "1-", "-1") // x1 + x2
	g := mustCover(t, "11")       // x1 x2
	h := mustCover(t, "10", "-1") // x1 x2' + x2
	if !f.Covers(g) {
		t.Error("x1+x2 should cover x1x2")
	}
	if g.Covers(f) {
		t.Error("x1x2 should not cover x1+x2")
	}
	if !f.Equivalent(h) {
		t.Error("x1+x2 should equal x1x2'+x2")
	}
}

func TestConsensus(t *testing.T) {
	a, _ := ParseCube("1-0")
	b, _ := ParseCube("-11")
	c, ok := Consensus(a, b)
	if !ok {
		t.Fatal("distance-1 cubes should have consensus")
	}
	want, _ := ParseCube("11-")
	if !c.Contains(want) || !want.Contains(c) {
		t.Errorf("Consensus = %v, want %v", c, want)
	}
	d, _ := ParseCube("01")
	e, _ := ParseCube("10")
	if _, ok := Consensus(d, e); ok {
		t.Error("distance-2 cubes have no consensus")
	}
}

func TestSharp(t *testing.T) {
	// Universal cube sharp x1 = x1'.
	u := NewCube(2)
	x1, _ := ParseCube("1-")
	r := Sharp(u, x1)
	want := mustCover(t, "0-")
	if !Equal(r, want) {
		t.Errorf("Sharp = %v, want %v", r, want)
	}
}

func TestMostBinate(t *testing.T) {
	// x1 appears in both phases, x2 only positive.
	f := mustCover(t, "11", "01")
	if v := f.MostBinate(); v != 0 {
		t.Errorf("MostBinate = %d, want 0", v)
	}
	g := mustCover(t, "1-", "-1")
	if v := g.MostBinate(); v != -1 {
		t.Errorf("unate cover MostBinate = %d, want -1", v)
	}
}

func TestFromMintermsRoundTrip(t *testing.T) {
	ms := []uint{0, 3, 5}
	f := FromMinterms(3, ms)
	got := f.Minterms()
	if len(got) != len(ms) {
		t.Fatalf("Minterms = %v, want %v", got, ms)
	}
	for i := range ms {
		if got[i] != ms[i] {
			t.Errorf("minterm %d = %d, want %d", i, got[i], ms[i])
		}
	}
}

func TestSCC(t *testing.T) {
	f := mustCover(t, "1-", "11", "11")
	f.SCC()
	if len(f.Cubes) != 1 {
		t.Errorf("SCC left %d cubes, want 1: %v", len(f.Cubes), f)
	}
}

func TestCubeCofactor(t *testing.T) {
	// f = x1x2 + x1'x3; f|x1 = x2.
	f := mustCover(t, "11-", "0-1")
	c, _ := ParseCube("1--")
	g := f.CubeCofactor(c)
	want := mustCover(t, "-1-")
	if !Equal(g, want) {
		t.Errorf("CubeCofactor = %v, want %v", g, want)
	}
}

func TestQuickEvalConsistency(t *testing.T) {
	// Property: parsing a random 0/1/- string and evaluating matches
	// direct interpretation.
	fn := func(bits [6]uint8, assignBits uint8) bool {
		s := make([]byte, 6)
		for i, b := range bits {
			s[i] = "01-"[b%3]
		}
		c, err := ParseCube(string(s))
		if err != nil {
			return false
		}
		assign := make([]bool, 6)
		want := true
		for i := 0; i < 6; i++ {
			assign[i] = assignBits&(1<<uint(i)) != 0
			switch s[i] {
			case '1':
				want = want && assign[i]
			case '0':
				want = want && !assign[i]
			}
		}
		return c.Eval(assign) == want
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
