// Package sat implements a conflict-driven clause-learning (CDCL)
// Boolean satisfiability solver in the MiniSat style — the course's
// Week-2 SAT engine and the miniSAT tool-portal replacement.
//
// The solver uses two-literal watching, first-UIP conflict analysis
// with non-chronological backjumping, VSIDS-style variable activities,
// phase saving, Luby restarts and learned-clause database reduction.
// Each of these can be disabled through Opts for the course's ablation
// experiments.
package sat

import "fmt"

// Lit is a literal: variable v in positive phase encodes as 2v, in
// negative phase as 2v+1.
type Lit int32

// PosLit returns the positive literal of variable v.
func PosLit(v int) Lit { return Lit(2 * v) }

// NegLit returns the negative literal of variable v.
func NegLit(v int) Lit { return Lit(2*v + 1) }

// Neg returns the complement literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether the literal is negative.
func (l Lit) Sign() bool { return l&1 == 1 }

// String renders the literal in DIMACS style (1-based, minus for
// negation).
func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// Status is the result of a Solve call.
type Status int

const (
	// Unknown means the solver gave up (conflict budget exhausted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula is unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SATISFIABLE"
	case Unsat:
		return "UNSATISFIABLE"
	default:
		return "UNKNOWN"
	}
}

// Opts disables individual CDCL ingredients for ablation studies.
type Opts struct {
	NoLearning   bool  // analyze conflicts but do not store learned clauses
	NoVSIDS      bool  // first-unassigned-variable decisions
	NoRestarts   bool  // never restart
	MaxConflicts int64 // give up (Unknown) after this many conflicts; 0 = unlimited
}

// Stats reports solver effort counters.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Learned      int64
	Restarts     int64
	MaxDepth     int
}

type clause struct {
	lits    []Lit
	learned bool
	act     float64
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	opts Opts

	clauses []*clause // problem clauses
	learnts []*clause // learned clauses
	watches [][]*clause

	assigns  []int8 // per var: -1 unassigned, 0 false, 1 true
	polarity []bool // phase saving
	level    []int
	reason   []*clause
	activity []float64
	varInc   float64

	trail    []Lit
	trailLim []int
	qhead    int

	model []bool
	ok    bool // false once a top-level conflict is derived

	claInc float64
	stats  Stats

	seen    []bool
	lubyIdx int64
}

// New returns an empty solver with default options.
func New() *Solver { return NewWithOpts(Opts{}) }

// NewWithOpts returns an empty solver with the given options.
func NewWithOpts(opts Opts) *Solver {
	return &Solver{opts: opts, varInc: 1, claInc: 1, ok: true}
}

// NewVar adds a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assigns)
	s.assigns = append(s.assigns, -1)
	s.polarity = append(s.polarity, false)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	return v
}

// NVars returns the number of variables.
func (s *Solver) NVars() int { return len(s.assigns) }

// Stats returns the solver's effort counters.
func (s *Solver) Stats() Stats { return s.stats }

// value returns the current truth value of a literal: -1 unassigned,
// 0 false, 1 true.
func (s *Solver) value(l Lit) int8 {
	a := s.assigns[l.Var()]
	if a < 0 {
		return -1
	}
	if l.Sign() {
		return 1 - a
	}
	return a
}

// AddClause adds a clause (given as literals) to the solver. It
// returns false if the formula became trivially unsatisfiable.
// Clauses may only be added at decision level 0 (i.e. before or
// between Solve calls).
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	// Sort/dedup; remove false literals; detect tautologies.
	var out []Lit
	for _, l := range lits {
		if l.Var() >= s.NVars() {
			panic(fmt.Sprintf("sat: literal %v references unknown variable", l))
		}
		switch s.value(l) {
		case 1:
			return true // clause already satisfied at level 0
		case 0:
			continue // drop false literal
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Neg() {
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		s.ok = s.propagate() == nil
		return s.ok
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.watchClause(c)
	return true
}

func (s *Solver) watchClause(c *clause) {
	// Watch the first two literals: a clause is visited when a watched
	// literal becomes false, so we index the watch lists by the
	// literal's negation.
	s.watches[c.lits[0].Neg()] = append(s.watches[c.lits[0].Neg()], c)
	s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], c)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Sign() {
		s.assigns[v] = 0
	} else {
		s.assigns[v] = 1
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// Model returns the satisfying assignment found by the last Solve
// call that returned Sat, indexed by variable.
func (s *Solver) Model() []bool {
	out := make([]bool, len(s.model))
	copy(out, s.model)
	return out
}
