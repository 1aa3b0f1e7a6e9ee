package mooc

import (
	"fmt"
	"math/rand"
	"strings"

	"vlsicad/internal/bdd"
	"vlsicad/internal/sat"
)

// Engine-backed Week-2 questions whose reference answers come from
// running the course's own BDD and SAT engines — the paper's point
// that rigorous machine-graded problems require the real tools behind
// the grader.

// bddNodeCountQuestion asks for the ROBDD size of a random expression
// under the natural variable order.
func bddNodeCountQuestion(week, q int, rng *rand.Rand) Question {
	n := 4 + rng.Intn(2)
	m := bdd.New(n)
	env := bdd.NewEnv(m)
	expr := randomExpr(rng, n, 3)
	f, err := bdd.Parse(env, expr)
	if err != nil {
		panic(fmt.Sprintf("mooc: generated bad expression %q: %v", expr, err))
	}
	count := m.NodeCount(f)
	return Question{
		ID:   fmt.Sprintf("hw%d.q%d", week, q+1),
		Week: week,
		Prompt: fmt.Sprintf(
			"Build the ROBDD of f = %s over variables %s (natural order). How many nodes does it have, counting both terminals?",
			expr, varList(n)),
		Check: func(ans string) bool {
			return strings.TrimSpace(ans) == fmt.Sprintf("%d", count)
		},
		Answer: fmt.Sprintf("%d", count),
	}
}

// satVerdictQuestion asks whether a small random CNF is satisfiable;
// the reference verdict comes from the CDCL solver.
func satVerdictQuestion(week, q int, rng *rand.Rand) Question {
	nvars := 4 + rng.Intn(3)
	nclauses := nvars*3 + rng.Intn(nvars*2)
	s := sat.New()
	for i := 0; i < nvars; i++ {
		s.NewVar()
	}
	var text []string
	for c := 0; c < nclauses; c++ {
		var lits []sat.Lit
		var toks []string
		for j := 0; j < 3; j++ {
			v := rng.Intn(nvars)
			if rng.Intn(2) == 0 {
				lits = append(lits, sat.PosLit(v))
				toks = append(toks, fmt.Sprintf("x%d", v+1))
			} else {
				lits = append(lits, sat.NegLit(v))
				toks = append(toks, fmt.Sprintf("x%d'", v+1))
			}
		}
		s.AddClause(lits...)
		text = append(text, "("+strings.Join(toks, "+")+")")
	}
	want := s.Solve() == sat.Sat
	wantStr := "unsat"
	if want {
		wantStr = "sat"
	}
	return Question{
		ID:   fmt.Sprintf("hw%d.q%d", week, q+1),
		Week: week,
		Prompt: fmt.Sprintf("Is the CNF %s satisfiable? (sat/unsat)",
			strings.Join(text, " ")),
		Check: func(ans string) bool {
			switch strings.ToLower(strings.TrimSpace(ans)) {
			case "sat", "satisfiable", "yes":
				return want
			case "unsat", "unsatisfiable", "no":
				return !want
			default:
				return false
			}
		},
		Answer: wantStr,
	}
}

// randomExpr builds a random kbdd-syntax expression with the given
// number of product terms.
func randomExpr(rng *rand.Rand, nvars, terms int) string {
	var parts []string
	for t := 0; t < terms; t++ {
		k := 2 + rng.Intn(2)
		var lits []string
		for j := 0; j < k; j++ {
			v := rng.Intn(nvars)
			l := fmt.Sprintf("x%d", v+1)
			if rng.Intn(2) == 0 {
				l = "~" + l
			}
			lits = append(lits, l)
		}
		parts = append(parts, strings.Join(lits, " & "))
	}
	return strings.Join(parts, " | ")
}

func varList(n int) string {
	var vs []string
	for i := 1; i <= n; i++ {
		vs = append(vs, fmt.Sprintf("x%d", i))
	}
	return strings.Join(vs, ", ")
}
