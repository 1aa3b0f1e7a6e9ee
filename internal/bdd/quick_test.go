package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property tests: random three-variable function tables must round
// trip through BDD construction, and algebraic identities must hold
// node-for-node thanks to canonicity.

// fromTruthTable builds the BDD of an 8-row truth table.
func fromTruthTable(m *Manager, tt uint8) Node {
	f := m.False()
	for row := uint(0); row < 8; row++ {
		if tt&(1<<row) == 0 {
			continue
		}
		term := m.True()
		for v := 0; v < 3; v++ {
			if row&(1<<uint(v)) != 0 {
				term = m.And(term, m.Var(v))
			} else {
				term = m.And(term, m.NVar(v))
			}
		}
		f = m.Or(f, term)
	}
	return f
}

func TestQuickTruthTableRoundTrip(t *testing.T) {
	m := New(3)
	fn := func(tt uint8) bool {
		f := fromTruthTable(m, tt)
		assign := make([]bool, 3)
		for row := uint(0); row < 8; row++ {
			for v := 0; v < 3; v++ {
				assign[v] = row&(1<<uint(v)) != 0
			}
			if m.Eval(f, assign) != (tt&(1<<row) != 0) {
				return false
			}
		}
		// SatCount equals popcount.
		pop := 0
		for row := uint(0); row < 8; row++ {
			if tt&(1<<row) != 0 {
				pop++
			}
		}
		return m.SatCount(f) == float64(pop)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 256}); err != nil {
		t.Error(err)
	}
}

func TestQuickAlgebraicIdentities(t *testing.T) {
	m := New(3)
	fn := func(ta, tb uint8) bool {
		a := fromTruthTable(m, ta)
		b := fromTruthTable(m, tb)
		// Canonicity turns semantic identities into pointer equality.
		if m.Not(m.And(a, b)) != m.Or(m.Not(a), m.Not(b)) {
			return false
		}
		if m.Xor(a, b) != m.Xor(b, a) {
			return false
		}
		if m.ITE(a, b, b) != b {
			return false
		}
		if m.And(a, m.Not(a)) != FalseNode {
			return false
		}
		if m.Or(a, m.Not(a)) != TrueNode {
			return false
		}
		// Shannon: f = ITE(x, f|x=1, f|x=0) for every variable.
		for v := 0; v < 3; v++ {
			if m.ITE(m.Var(v), m.Restrict(a, v, true), m.Restrict(a, v, false)) != a {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickQuantifierDuality(t *testing.T) {
	m := New(3)
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 200; iter++ {
		f := fromTruthTable(m, uint8(rng.Intn(256)))
		v := rng.Intn(3)
		// ¬∃x f = ∀x ¬f.
		if m.Not(m.Exists(f, v)) != m.ForAll(m.Not(f), v) {
			t.Fatalf("quantifier duality failed (iter %d)", iter)
		}
		// ∃x f ⊇ f ⊇ ∀x f (as implications).
		if m.Implies(f, m.Exists(f, v)) != TrueNode {
			t.Fatalf("f should imply ∃f (iter %d)", iter)
		}
		if m.Implies(m.ForAll(f, v), f) != TrueNode {
			t.Fatalf("∀f should imply f (iter %d)", iter)
		}
	}
}
