package sat

// Tseitin encoding of combinational logic into CNF — the bridge the
// course uses between circuits and SAT, e.g. to build equivalence
// miters for formal verification.

// Enc wraps a Solver with gate-level constructors. Each gate
// introduces one fresh variable constrained to equal the gate output.
type Enc struct {
	S *Solver
}

// NewEnc returns an encoder over a fresh solver.
func NewEnc() *Enc { return &Enc{S: New()} }

// Input allocates a fresh unconstrained input and returns its positive
// literal.
func (e *Enc) Input() Lit { return PosLit(e.S.NewVar()) }

// Const returns a literal fixed to the given value.
func (e *Enc) Const(v bool) Lit {
	l := PosLit(e.S.NewVar())
	if v {
		e.S.AddClause(l)
	} else {
		e.S.AddClause(l.Neg())
	}
	return l
}

// Not returns the complement (free in Tseitin encoding).
func (e *Enc) Not(a Lit) Lit { return a.Neg() }

// And returns a literal z with z ≡ a·b.
func (e *Enc) And(a, b Lit) Lit {
	z := PosLit(e.S.NewVar())
	e.S.AddClause(a.Neg(), b.Neg(), z)
	e.S.AddClause(a, z.Neg())
	e.S.AddClause(b, z.Neg())
	return z
}

// Or returns a literal z with z ≡ a+b.
func (e *Enc) Or(a, b Lit) Lit { return e.And(a.Neg(), b.Neg()).Neg() }

// Xor returns a literal z with z ≡ a⊕b.
func (e *Enc) Xor(a, b Lit) Lit {
	z := PosLit(e.S.NewVar())
	e.S.AddClause(a.Neg(), b.Neg(), z.Neg())
	e.S.AddClause(a, b, z.Neg())
	e.S.AddClause(a.Neg(), b, z)
	e.S.AddClause(a, b.Neg(), z)
	return z
}

// AndN folds And over any number of inputs (true for none).
func (e *Enc) AndN(ls ...Lit) Lit {
	if len(ls) == 0 {
		return e.Const(true)
	}
	z := ls[0]
	for _, l := range ls[1:] {
		z = e.And(z, l)
	}
	return z
}

// OrN folds Or over any number of inputs (false for none).
func (e *Enc) OrN(ls ...Lit) Lit {
	if len(ls) == 0 {
		return e.Const(false)
	}
	z := ls[0]
	for _, l := range ls[1:] {
		z = e.Or(z, l)
	}
	return z
}

// Miter asserts that at least one output pair differs: the standard
// equivalence-checking construction. After calling Miter, Solve
// returns Unsat iff the two output vectors are equivalent.
func (e *Enc) Miter(outsA, outsB []Lit) {
	if len(outsA) != len(outsB) {
		panic("sat: miter output vectors differ in length")
	}
	diff := make([]Lit, len(outsA))
	for i := range outsA {
		diff[i] = e.Xor(outsA[i], outsB[i])
	}
	e.S.AddClause(diff...)
}

// Value reads a literal's value from the model of the last Sat solve.
func (e *Enc) Value(model []bool, l Lit) bool {
	v := model[l.Var()]
	if l.Sign() {
		return !v
	}
	return v
}
