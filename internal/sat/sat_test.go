package sat

import (
	"math/rand"
	"strings"
	"testing"
)

func TestLitEncoding(t *testing.T) {
	l := PosLit(3)
	if l.Var() != 3 || l.Sign() {
		t.Error("PosLit wrong")
	}
	n := l.Neg()
	if n.Var() != 3 || !n.Sign() {
		t.Error("Neg wrong")
	}
	if n.Neg() != l {
		t.Error("double negation")
	}
	if l.String() != "4" || n.String() != "-4" {
		t.Errorf("String: %s %s", l, n)
	}
}

func TestTrivial(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	if s.Solve() != Sat {
		t.Fatal("single unit clause should be SAT")
	}
	if !s.Model()[a] {
		t.Error("model should set a true")
	}
	if ok := s.AddClause(NegLit(a)); ok {
		t.Error("contradictory unit should make solver not-ok")
	}
	if s.Solve() != Unsat {
		t.Error("a AND ~a should be UNSAT")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	s.NewVar()
	if s.AddClause() {
		t.Error("empty clause should return false")
	}
	if s.Solve() != Unsat {
		t.Error("empty clause is UNSAT")
	}
}

func TestSmallUnsat(t *testing.T) {
	// (a|b)(a|~b)(~a|b)(~a|~b) is UNSAT.
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(PosLit(a), NegLit(b))
	s.AddClause(NegLit(a), PosLit(b))
	s.AddClause(NegLit(a), NegLit(b))
	if s.Solve() != Unsat {
		t.Error("complete binary clauses should be UNSAT")
	}
}

func TestModelSatisfiesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 100; iter++ {
		n := 5 + rng.Intn(15)
		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		var clauses [][]Lit
		for k := 0; k < 3*n; k++ {
			var c []Lit
			for j := 0; j < 3; j++ {
				v := rng.Intn(n)
				if rng.Intn(2) == 0 {
					c = append(c, PosLit(v))
				} else {
					c = append(c, NegLit(v))
				}
			}
			clauses = append(clauses, c)
			s.AddClause(c...)
		}
		if s.Solve() != Sat {
			continue // random 3-SAT at ratio 3 is usually SAT; skip UNSAT
		}
		model := s.Model()
		for _, c := range clauses {
			ok := false
			for _, l := range c {
				val := model[l.Var()]
				if l.Sign() {
					val = !val
				}
				if val {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("iter %d: model does not satisfy clause %v", iter, c)
			}
		}
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons in n holes — UNSAT and
// exponentially hard for resolution; small sizes exercise learning.
func pigeonhole(s *Solver, pigeons, holes int) {
	lit := func(p, h int) Lit { return PosLit(p*holes + h) }
	for i := 0; i < pigeons*holes; i++ {
		s.NewVar()
	}
	for p := 0; p < pigeons; p++ {
		var c []Lit
		for h := 0; h < holes; h++ {
			c = append(c, lit(p, h))
		}
		s.AddClause(c...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(lit(p1, h).Neg(), lit(p2, h).Neg())
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		pigeonhole(s, n+1, n)
		if got := s.Solve(); got != Unsat {
			t.Errorf("PHP(%d,%d) = %v, want UNSAT", n+1, n, got)
		}
	}
}

func TestPigeonholeSatWhenRoomy(t *testing.T) {
	s := New()
	pigeonhole(s, 4, 4)
	if s.Solve() != Sat {
		t.Error("PHP(4,4) should be SAT")
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	if s.Solve(NegLit(a)) != Sat {
		t.Error("assuming ~a should still be SAT via b")
	}
	if !s.Model()[b] {
		t.Error("model under assumption ~a must set b")
	}
	if s.Solve(NegLit(a), NegLit(b)) != Unsat {
		t.Error("assuming ~a ~b should be UNSAT")
	}
	// Solver must be reusable after assumption solves.
	if s.Solve() != Sat {
		t.Error("solver should remain SAT without assumptions")
	}
}

func TestIncrementalSolving(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	if s.Solve() != Sat {
		t.Fatal("phase 1 should be SAT")
	}
	s.AddClause(NegLit(a))
	s.AddClause(NegLit(b), PosLit(c))
	if s.Solve() != Sat {
		t.Fatal("phase 2 should be SAT")
	}
	m := s.Model()
	if m[a] || !m[b] || !m[c] {
		t.Errorf("model = %v, want a=F b=T c=T", m)
	}
}

func TestOptsAblations(t *testing.T) {
	for _, opts := range []Opts{
		{NoLearning: true},
		{NoVSIDS: true},
		{NoRestarts: true},
		{NoLearning: true, NoVSIDS: true, NoRestarts: true},
	} {
		s := NewWithOpts(opts)
		pigeonhole(s, 5, 4)
		if got := s.Solve(); got != Unsat {
			t.Errorf("opts %+v: PHP(5,4) = %v, want UNSAT", opts, got)
		}
		s2 := NewWithOpts(opts)
		pigeonhole(s2, 4, 4)
		if got := s2.Solve(); got != Sat {
			t.Errorf("opts %+v: PHP(4,4) = %v, want SAT", opts, got)
		}
	}
}

func TestMaxConflictsBudget(t *testing.T) {
	s := NewWithOpts(Opts{MaxConflicts: 1})
	pigeonhole(s, 7, 6)
	if got := s.Solve(); got == Sat {
		t.Errorf("budgeted solve returned %v; PHP is UNSAT so only Unsat/Unknown allowed", got)
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	in := `c example
p cnf 3 4
1 2 0
-1 3 0
-2 3 0
-3 0
`
	s, nvars, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if nvars != 3 {
		t.Errorf("nvars = %d", nvars)
	}
	if s.Solve() != Unsat {
		t.Error("instance should be UNSAT")
	}
}

func TestDIMACSErrors(t *testing.T) {
	cases := []string{
		"1 2 0\n",          // clause before header
		"p cnf x 1\n1 0\n", // bad var count
		"p cnf 1 1\nz 0\n", // bad literal
		"p cnf 1 1\n2 0\n", // out of range
		"p cnf 1 2\n1 0\n", // clause count mismatch
		"p dnf 1 1\n1 0\n", // wrong format
	}
	for _, in := range cases {
		if _, _, err := ParseDIMACS(strings.NewReader(in)); err == nil {
			t.Errorf("ParseDIMACS(%q) should fail", in)
		}
	}
}

func TestTseitinGates(t *testing.T) {
	// Verify each gate's truth table by solving under assumptions.
	check := func(name string, build func(e *Enc, a, b Lit) Lit, truth [4]bool) {
		for i := 0; i < 4; i++ {
			e := NewEnc()
			a, b := e.Input(), e.Input()
			z := build(e, a, b)
			la, lb := a, b
			if i&1 == 0 {
				la = a.Neg()
			}
			if i&2 == 0 {
				lb = b.Neg()
			}
			lz := z
			if !truth[i] {
				lz = z.Neg()
			}
			if e.S.Solve(la, lb, lz) != Sat {
				t.Errorf("%s: input %d: expected output %v unreachable", name, i, truth[i])
			}
			if e.S.Solve(la, lb, lz.Neg()) != Unsat {
				t.Errorf("%s: input %d: wrong output satisfiable", name, i)
			}
		}
	}
	check("and", func(e *Enc, a, b Lit) Lit { return e.And(a, b) }, [4]bool{false, false, false, true})
	check("or", func(e *Enc, a, b Lit) Lit { return e.Or(a, b) }, [4]bool{false, true, true, true})
	check("xor", func(e *Enc, a, b Lit) Lit { return e.Xor(a, b) }, [4]bool{false, true, true, false})
}

func TestMiterEquivalence(t *testing.T) {
	// a&b vs ~(~a|~b): equivalent, so the miter is UNSAT.
	e := NewEnc()
	a, b := e.Input(), e.Input()
	z1 := e.And(a, b)
	z2 := e.Or(a.Neg(), b.Neg()).Neg()
	e.Miter([]Lit{z1}, []Lit{z2})
	if e.S.Solve() != Unsat {
		t.Error("equivalent circuits: miter should be UNSAT")
	}
	// a&b vs a|b: differ, miter SAT, and model is a witness.
	e2 := NewEnc()
	a2, b2 := e2.Input(), e2.Input()
	e2.Miter([]Lit{e2.And(a2, b2)}, []Lit{e2.Or(a2, b2)})
	if e2.S.Solve() != Sat {
		t.Fatal("inequivalent circuits: miter should be SAT")
	}
	m := e2.S.Model()
	va, vb := e2.Value(m, a2), e2.Value(m, b2)
	if (va && vb) == (va || vb) {
		t.Errorf("witness a=%v b=%v does not distinguish AND from OR", va, vb)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 5)
	s.Solve()
	st := s.Stats()
	if st.Conflicts == 0 || st.Decisions == 0 || st.Propagations == 0 {
		t.Errorf("stats should be nonzero: %+v", st)
	}
}

func TestLearningHelpsOnPigeonhole(t *testing.T) {
	run := func(opts Opts) int64 {
		s := NewWithOpts(opts)
		pigeonhole(s, 6, 5)
		s.Solve()
		return s.Stats().Conflicts
	}
	with := run(Opts{})
	without := run(Opts{NoLearning: true, NoVSIDS: true, NoRestarts: true})
	if with > 4*without+1000 {
		t.Errorf("learning should not be drastically worse: with=%d without=%d", with, without)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestXorChainParity(t *testing.T) {
	// A chain of XORs with a parity constraint: exactly solvable.
	e := NewEnc()
	n := 20
	ins := make([]Lit, n)
	for i := range ins {
		ins[i] = e.Input()
	}
	acc := ins[0]
	for i := 1; i < n; i++ {
		acc = e.Xor(acc, ins[i])
	}
	e.S.AddClause(acc) // parity must be odd
	if e.S.Solve() != Sat {
		t.Fatal("parity constraint should be SAT")
	}
	m := e.S.Model()
	parity := false
	for _, l := range ins {
		if e.Value(m, l) {
			parity = !parity
		}
	}
	if !parity {
		t.Error("model parity should be odd")
	}
}
