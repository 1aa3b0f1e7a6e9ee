package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseDIMACS reads a CNF formula in DIMACS format into a fresh
// solver. Variables 1..n in the file map to solver variables 0..n-1.
// It returns the solver and the declared variable count.
func ParseDIMACS(r io.Reader) (*Solver, int, error) {
	s := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	nvars, nclauses := -1, -1
	var cur []Lit
	seen := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, 0, fmt.Errorf("sat: bad problem line %q", line)
			}
			var err error
			if nvars, err = strconv.Atoi(fields[2]); err != nil {
				return nil, 0, fmt.Errorf("sat: bad variable count: %v", err)
			}
			if nclauses, err = strconv.Atoi(fields[3]); err != nil {
				return nil, 0, fmt.Errorf("sat: bad clause count: %v", err)
			}
			for i := 0; i < nvars; i++ {
				s.NewVar()
			}
			continue
		}
		if nvars < 0 {
			return nil, 0, fmt.Errorf("sat: clause before problem line")
		}
		for _, tok := range strings.Fields(line) {
			x, err := strconv.Atoi(tok)
			if err != nil {
				return nil, 0, fmt.Errorf("sat: bad literal %q: %v", tok, err)
			}
			if x == 0 {
				s.AddClause(cur...)
				cur = cur[:0]
				seen++
				continue
			}
			v := x
			if v < 0 {
				v = -v
			}
			if v > nvars {
				return nil, 0, fmt.Errorf("sat: literal %d exceeds declared %d variables", x, nvars)
			}
			if x > 0 {
				cur = append(cur, PosLit(v-1))
			} else {
				cur = append(cur, NegLit(v-1))
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if len(cur) > 0 {
		s.AddClause(cur...)
		seen++
	}
	if nclauses >= 0 && seen != nclauses {
		return nil, 0, fmt.Errorf("sat: declared %d clauses, found %d", nclauses, seen)
	}
	return s, nvars, nil
}
