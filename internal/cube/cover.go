package cube

import (
	"fmt"
	"sort"
	"strings"
)

// Cover is a sum-of-products list of cubes over a common variable
// count. The zero value is the empty cover (the constant-0 function
// when interpreted as a function).
type Cover struct {
	N     int // number of variables
	Cubes []Cube
}

// NewCover returns an empty cover over n variables.
func NewCover(n int) *Cover {
	return &Cover{N: n}
}

// Universal returns the single-cube cover of the constant-1 function.
func Universal(n int) *Cover {
	return &Cover{N: n, Cubes: []Cube{NewCube(n)}}
}

// Clone deep-copies the cover.
func (f *Cover) Clone() *Cover {
	g := &Cover{N: f.N, Cubes: make([]Cube, len(f.Cubes))}
	for i, c := range f.Cubes {
		g.Cubes[i] = c.Clone()
	}
	return g
}

// Add appends a cube, dropping it silently if void.
func (f *Cover) Add(c Cube) {
	if len(c) != f.N {
		panic("cube: Add cube of wrong width")
	}
	if c.IsVoid() {
		return
	}
	f.Cubes = append(f.Cubes, c)
}

// IsEmpty reports whether the cover has no cubes (constant 0).
func (f *Cover) IsEmpty() bool { return len(f.Cubes) == 0 }

// Eval evaluates the cover on a complete assignment.
func (f *Cover) Eval(assign []bool) bool {
	for _, c := range f.Cubes {
		if c.Eval(assign) {
			return true
		}
	}
	return false
}

// Literals counts literals across all cubes (the course's area proxy
// for two-level covers).
func (f *Cover) Literals() int {
	n := 0
	for _, c := range f.Cubes {
		n += c.Literals()
	}
	return n
}

// Cofactor returns the Shannon cofactor of the cover with respect to
// variable v at the given phase.
func (f *Cover) Cofactor(v int, phase bool) *Cover {
	g := NewCover(f.N)
	for _, c := range f.Cubes {
		if r, ok := c.Cofactor(v, phase); ok {
			g.Cubes = append(g.Cubes, r)
		}
	}
	return g
}

// CubeCofactor returns the generalized cofactor f|c of the cover with
// respect to an arbitrary cube c (used by espresso-style operations).
func (f *Cover) CubeCofactor(c Cube) *Cover {
	g := NewCover(f.N)
	for _, d := range f.Cubes {
		if d.Distance(c) > 0 {
			continue
		}
		r := d.Clone()
		for i := range r {
			if c[i] != DC {
				r[i] = DC
			}
		}
		g.Cubes = append(g.Cubes, r)
	}
	return g
}

// SCC removes single-cube-contained cubes: any cube covered by another
// single cube of the cover is deleted. The receiver is modified and
// returned.
func (f *Cover) SCC() *Cover {
	// Sort by decreasing literal count so large cubes absorb small ones.
	sort.SliceStable(f.Cubes, func(i, j int) bool {
		return f.Cubes[i].Literals() < f.Cubes[j].Literals()
	})
	var kept []Cube
	for _, c := range f.Cubes {
		covered := false
		for _, k := range kept {
			if k.Contains(c) {
				covered = true
				break
			}
		}
		if !covered {
			kept = append(kept, c)
		}
	}
	f.Cubes = kept
	return f
}

// Or returns the union (disjunction) of two covers.
func (f *Cover) Or(g *Cover) *Cover {
	if f.N != g.N {
		panic("cube: Or on covers of different width")
	}
	r := &Cover{N: f.N}
	r.Cubes = append(r.Cubes, f.Cubes...)
	r.Cubes = append(r.Cubes, g.Cubes...)
	return r.Clone().SCC()
}

// And returns the intersection (conjunction) of two covers by pairwise
// cube intersection.
func (f *Cover) And(g *Cover) *Cover {
	if f.N != g.N {
		panic("cube: And on covers of different width")
	}
	r := NewCover(f.N)
	for _, c := range f.Cubes {
		for _, d := range g.Cubes {
			x := c.And(d)
			if !x.IsVoid() {
				r.Cubes = append(r.Cubes, x)
			}
		}
	}
	return r.SCC()
}

// Sharp returns the sharp (set difference) c # d for single cubes as a
// cover: the part of c not covered by d.
func Sharp(c, d Cube) *Cover {
	n := len(c)
	r := NewCover(n)
	if c.Distance(d) > 0 {
		r.Cubes = append(r.Cubes, c.Clone())
		return r
	}
	for i := 0; i < n; i++ {
		// Residual literal: part of c in variable i that d excludes.
		res := c[i] &^ d[i]
		if res == Void {
			continue
		}
		x := c.Clone()
		x[i] = res
		r.Cubes = append(r.Cubes, x)
	}
	return r.SCC()
}

// Difference returns f # g: the cover of minterms in f but not g,
// computed cube-by-cube with the sharp operation.
func (f *Cover) Difference(g *Cover) *Cover {
	cur := f.Clone()
	for _, d := range g.Cubes {
		next := NewCover(f.N)
		for _, c := range cur.Cubes {
			next.Cubes = append(next.Cubes, Sharp(c, d).Cubes...)
		}
		cur = next.SCC()
	}
	return cur
}

// Minterms enumerates all satisfying assignments of the cover;
// intended for small N (testing and exact algorithms).
func (f *Cover) Minterms() []uint {
	if f.N > 24 {
		panic("cube: Minterms on too many variables")
	}
	var out []uint
	assign := make([]bool, f.N)
	for m := uint(0); m < 1<<uint(f.N); m++ {
		for i := 0; i < f.N; i++ {
			assign[i] = m&(1<<uint(i)) != 0
		}
		if f.Eval(assign) {
			out = append(out, m)
		}
	}
	return out
}

// String renders the cover one cube per line in PCN.
func (f *Cover) String() string {
	if f.IsEmpty() {
		return "(empty cover)"
	}
	var b strings.Builder
	for i, c := range f.Cubes {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(c.String())
	}
	return b.String()
}

// FromMinterms builds a minterm-canonical cover over n variables.
// Only tests call it: it is the cover builder that the tests of
// several packages share.
func FromMinterms(n int, minterms []uint) *Cover {
	f := NewCover(n)
	for _, m := range minterms {
		f.Cubes = append(f.Cubes, Minterm(n, m))
	}
	return f
}

// Equal reports semantic equality of two covers by exhaustive
// evaluation; intended for small N (testing).
func Equal(f, g *Cover) bool {
	if f.N != g.N {
		return false
	}
	assign := make([]bool, f.N)
	for m := uint(0); m < 1<<uint(f.N); m++ {
		for i := 0; i < f.N; i++ {
			assign[i] = m&(1<<uint(i)) != 0
		}
		if f.Eval(assign) != g.Eval(assign) {
			return false
		}
	}
	return true
}

// ParseCube parses the course's compact cube syntax over n variables:
// a string of n characters from {0,1,-} where position i gives variable
// i ('1' positive literal, '0' negative, '-' absent).
func ParseCube(s string) (Cube, error) {
	c := make(Cube, len(s))
	for i, ch := range s {
		switch ch {
		case '1':
			c[i] = Pos
		case '0':
			c[i] = Neg
		case '-', '2':
			c[i] = DC
		default:
			return nil, fmt.Errorf("cube: invalid character %q in cube %q", ch, s)
		}
	}
	return c, nil
}

// ParseCover parses one cube per whitespace-separated token, all of the
// same width.
func ParseCover(tokens []string) (*Cover, error) {
	if len(tokens) == 0 {
		return nil, fmt.Errorf("cube: empty cover text")
	}
	n := len(tokens[0])
	f := NewCover(n)
	for _, t := range tokens {
		if len(t) != n {
			return nil, fmt.Errorf("cube: cube %q width %d, want %d", t, len(t), n)
		}
		c, err := ParseCube(t)
		if err != nil {
			return nil, err
		}
		f.Add(c)
	}
	return f, nil
}
