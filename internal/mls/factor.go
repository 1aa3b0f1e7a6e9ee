package mls

import (
	"slices"
	"strings"
)

// Factored-form expressions: the course's metric for multi-level
// quality is factored literal count, and factoring trees also drive
// decomposition into two-input gates.

// Expr is a factored Boolean expression node.
type Expr interface {
	// Lits counts literals in the factored form.
	Lits() int
	// Render prints the expression using the name function for
	// algebraic literals.
	Render(name func(ALit) string) string
}

// LitExpr is a single algebraic literal.
type LitExpr struct{ L ALit }

// AndExpr is a product of factors.
type AndExpr struct{ Factors []Expr }

// OrExpr is a sum of terms.
type OrExpr struct{ Terms []Expr }

// Lits returns 1.
func (e LitExpr) Lits() int { return 1 }

// Lits sums the factors.
func (e AndExpr) Lits() int {
	n := 0
	for _, f := range e.Factors {
		n += f.Lits()
	}
	return n
}

// Lits sums the terms.
func (e OrExpr) Lits() int {
	n := 0
	for _, t := range e.Terms {
		n += t.Lits()
	}
	return n
}

// Render prints the literal.
func (e LitExpr) Render(name func(ALit) string) string { return name(e.L) }

// Render prints factors separated by spaces, parenthesizing sums; the
// empty product prints as 1.
func (e AndExpr) Render(name func(ALit) string) string {
	if len(e.Factors) == 0 {
		return "1"
	}
	parts := make([]string, len(e.Factors))
	for i, f := range e.Factors {
		s := f.Render(name)
		if _, isOr := f.(OrExpr); isOr {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, " ")
}

// Render prints terms joined by " + ".
func (e OrExpr) Render(name func(ALit) string) string {
	parts := make([]string, len(e.Terms))
	for i, t := range e.Terms {
		parts[i] = t.Render(name)
	}
	return strings.Join(parts, " + ")
}

// Factor produces a factored form of the cover using the course's
// quick-factor recursion: pick a divisor (best kernel, else a most
// frequent literal), divide, and recurse on quotient, divisor and
// remainder.
func Factor(f ACover) Expr {
	f = f.Clone().normalize()
	switch len(f) {
	case 0:
		return OrExpr{} // constant 0; callers handle specially
	case 1:
		return cubeExpr(f[0])
	}
	// Choose a divisor: the best kernel by (cubes-1)*(co-kernel reuse)
	// proxy — here simply the kernel with most cubes, falling back to
	// the most frequent literal.
	var divisor ACover
	kernels := Kernels(f)
	best := -1
	for _, k := range kernels {
		if len(k.CoKernel) == 0 && coverKey(k.K) == coverKey(f) {
			continue // dividing by itself
		}
		score := len(k.K)
		if score > best && len(k.K) >= 2 {
			best = score
			divisor = k.K
		}
	}
	if divisor == nil {
		lits := literalCounts(f)
		var bestLit ALit = -1
		bestCnt := 1
		var order []ALit
		for l := range lits {
			order = append(order, l)
		}
		slices.Sort(order)
		for _, l := range order {
			if lits[l] > bestCnt {
				bestCnt = lits[l]
				bestLit = l
			}
		}
		if bestLit < 0 {
			// No shared literal: plain sum of cubes.
			terms := make([]Expr, len(f))
			for i, c := range f {
				terms[i] = cubeExpr(c)
			}
			return OrExpr{Terms: terms}
		}
		divisor = ACover{{bestLit}}
	}
	q, r := divide(f, divisor)
	if len(q) == 0 {
		terms := make([]Expr, len(f))
		for i, c := range f {
			terms[i] = cubeExpr(c)
		}
		return OrExpr{Terms: terms}
	}
	qd := AndExpr{Factors: []Expr{Factor(q), Factor(divisor)}}
	if len(r) == 0 {
		return qd
	}
	return OrExpr{Terms: []Expr{qd, Factor(r)}}
}

func cubeExpr(c ACube) Expr {
	if len(c) == 1 {
		return LitExpr{c[0]}
	}
	factors := make([]Expr, len(c))
	for i, l := range c {
		factors[i] = LitExpr{l}
	}
	return AndExpr{Factors: factors}
}

// FactoredLits returns the factored-form literal count of the cover —
// the course's area estimate for a multi-level node.
func FactoredLits(f ACover) int {
	if len(f) == 0 {
		return 0
	}
	return Factor(f).Lits()
}
