package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"vlsicad/internal/bench"
	"vlsicad/internal/netlist"
)

// Tool inputs for the portal workloads. Each generator draws one
// homework-sized (or, for the storm, tiny) text input from rng; the
// program under test receives only the text.

// cnfInput draws a 3-CNF over vars variables at the given
// clause/variable ratio, three distinct variables per clause.
func cnfInput(rng *rand.Rand, vars int, ratio float64) string {
	clauses := int(math.Round(ratio * float64(vars)))
	var b strings.Builder
	fmt.Fprintf(&b, "p cnf %d %d\n", vars, clauses)
	for c := 0; c < clauses; c++ {
		perm := rng.Perm(vars)[:3]
		for _, v := range perm {
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "-%d ", v+1)
			} else {
				fmt.Fprintf(&b, "%d ", v+1)
			}
		}
		b.WriteString("0\n")
	}
	return b.String()
}

// plaInput draws an ni-input, two-output PLA with the given number of
// rows; every row asserts at least one output.
func plaInput(rng *rand.Rand, ni, rows int) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".i %d\n.o 2\n", ni)
	for r := 0; r < rows; r++ {
		for i := 0; i < ni; i++ {
			b.WriteByte("01--"[rng.Intn(4)])
		}
		out := []string{"10", "01", "11"}[rng.Intn(3)]
		fmt.Fprintf(&b, " %s\n", out)
	}
	b.WriteString(".e\n")
	return b.String()
}

// exprText draws a sum of terms products of 2-3 literals over x1..xn.
func exprText(rng *rand.Rand, prefix string, n, terms int) string {
	parts := make([]string, terms)
	for t := range parts {
		k := 2 + rng.Intn(2)
		lits := make([]string, k)
		for j := range lits {
			lits[j] = fmt.Sprintf("%s%d", prefix, rng.Intn(n)+1)
			if rng.Intn(2) == 0 {
				lits[j] = "~" + lits[j]
			}
		}
		parts[t] = strings.Join(lits, " & ")
	}
	return strings.Join(parts, " | ")
}

// kbddInput draws a kbdd script over n variables: two functions, their
// XOR, counts, a quantification and an equality query.
func kbddInput(rng *rand.Rand, n int) string {
	vars := make([]string, n)
	for i := range vars {
		vars[i] = fmt.Sprintf("x%d", i+1)
	}
	q1, q2 := rng.Intn(n)+1, rng.Intn(n)+1
	return fmt.Sprintf("var %s\nf = %s\ng = %s\nh = f ^ g\nsatcount h\nnodes h\nexists e h x%d x%d\nsatcount e\nequal f g\n",
		strings.Join(vars, " "), exprText(rng, "x", n, 4+rng.Intn(3)), exprText(rng, "x", n, 4+rng.Intn(3)), q1, q2)
}

// tinyKBDDInput draws the storm's job: one small function over four
// variables and its satisfying-assignment count.
func tinyKBDDInput(rng *rand.Rand) string {
	return fmt.Sprintf("var x1 x2 x3 x4\nf = %s\nsatcount f\n", exprText(rng, "x", 4, 2+rng.Intn(2)))
}

// sisInput draws a BLIF network of the given node count followed by a
// sweep/simplify/fx script.
func sisInput(rng *rand.Rand, nodes int) string {
	nw := bench.Network(bench.NetworkSpec{Name: "hw", Inputs: 8, Nodes: nodes, Outputs: 4}, rng.Int63())
	var b bytes.Buffer
	if err := netlist.WriteBLIF(&b, nw); err != nil {
		panic(err) // writing to a bytes.Buffer cannot fail
	}
	b.WriteString("sweep\nsimplify\nfx\nprint_stats\n")
	return b.String()
}

// axbInput draws an n×n symmetric, strictly diagonally dominant (hence
// positive definite) system for the conjugate-gradient method.
func axbInput(rng *rand.Rand, n int) string {
	a := make([][]int, n)
	for i := range a {
		a[i] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		for k := 0; k < 2; k++ {
			j := rng.Intn(n)
			if j != i {
				w := 1 + rng.Intn(4)
				a[i][j] -= w
				a[j][i] -= w
			}
		}
	}
	for i := range a {
		sum := 0
		for j, v := range a[i] {
			if j != i {
				sum -= v
			}
		}
		a[i][i] = sum + 1 + rng.Intn(3)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d cg\n", n)
	for _, row := range a {
		for j, v := range row {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(v))
		}
		b.WriteByte('\n')
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(rng.Intn(21) - 10))
	}
	b.WriteByte('\n')
	return b.String()
}

// checkSATModel verifies a minisat answer against its CNF: a
// SATISFIABLE verdict must carry a model that satisfies every clause.
// An UNSATISFIABLE verdict is accepted as is; the reference equality
// check already pins it to a direct solver call.
func checkSATModel(cnf, out string) error {
	if strings.HasPrefix(out, "s UNSATISFIABLE") {
		return nil
	}
	if !strings.HasPrefix(out, "s SATISFIABLE") {
		return fmt.Errorf("minisat: no verdict in %q", firstLine(out))
	}
	val := map[int]bool{}
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "v ") {
			continue
		}
		for _, f := range strings.Fields(line[2:]) {
			l, err := strconv.Atoi(f)
			if err != nil {
				return fmt.Errorf("minisat: bad model literal %q", f)
			}
			if l != 0 {
				val[abs(l)] = l > 0
			}
		}
	}
	for _, line := range strings.Split(cnf, "\n") {
		if line == "" || line[0] == 'p' || line[0] == 'c' {
			continue
		}
		sat := false
		for _, f := range strings.Fields(line) {
			l, _ := strconv.Atoi(f) // the generator wrote these integers
			if l != 0 && val[abs(l)] == (l > 0) {
				sat = true
			}
		}
		if !sat {
			return fmt.Errorf("minisat: model falsifies clause %q", line)
		}
	}
	return nil
}

var axbSolution = regexp.MustCompile(`(?m)^x(\d+) = (\S+)$`)

// axbResidual parses an axb answer and returns max_i |(Ax-b)_i| for the
// system in input.
func axbResidual(input, out string) (float64, error) {
	f := strings.Fields(input)
	n, _ := strconv.Atoi(f[0]) // the generator wrote "n cg" first
	nums := make([]float64, len(f)-2)
	for i, s := range f[2:] {
		nums[i], _ = strconv.ParseFloat(s, 64)
	}
	x := make([]float64, n)
	matches := axbSolution.FindAllStringSubmatch(out, -1)
	if len(matches) != n {
		return 0, fmt.Errorf("axb: %d solution values, want %d", len(matches), n)
	}
	for _, m := range matches {
		i, _ := strconv.Atoi(m[1])
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil || i < 1 || i > n {
			return 0, fmt.Errorf("axb: bad solution line x%s = %s", m[1], m[2])
		}
		x[i-1] = v
	}
	worst := 0.0
	for i := 0; i < n; i++ {
		r := -nums[n*n+i]
		for j := 0; j < n; j++ {
			r += nums[i*n+j] * x[j]
		}
		worst = math.Max(worst, math.Abs(r))
	}
	return worst, nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
