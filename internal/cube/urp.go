package cube

// This file implements the Unate Recursive Paradigm (URP): the
// course's Week-1 algorithmic workhorse. Every operation follows the
// same shape — check a unate/terminal case, otherwise pick the most
// binate variable, cofactor, recurse, and merge with Shannon's
// expansion.

// unateness classifies how each variable appears across the cover.
type unateness struct {
	pos, neg, dc int // cubes with Pos, Neg, DC code for the variable
}

func (f *Cover) unateProfile() []unateness {
	u := make([]unateness, f.N)
	for _, c := range f.Cubes {
		for i, l := range c {
			switch l {
			case Pos:
				u[i].pos++
			case Neg:
				u[i].neg++
			default:
				u[i].dc++
			}
		}
	}
	return u
}

// MostBinate returns the index of the most binate variable — the one
// appearing in both phases in the largest number of cubes, with ties
// broken by smallest |pos-neg| then lowest index, as the course's
// selection rule prescribes. Returns -1 if the cover is unate.
func (f *Cover) MostBinate() int {
	u := f.unateProfile()
	best, bestCount, bestBal := -1, -1, 0
	for i, p := range u {
		if p.pos == 0 || p.neg == 0 {
			continue
		}
		count := p.pos + p.neg
		bal := p.pos - p.neg
		if bal < 0 {
			bal = -bal
		}
		if count > bestCount || (count == bestCount && bal < bestBal) {
			best, bestCount, bestBal = i, count, bal
		}
	}
	return best
}

// unateTautology decides tautology for a unate cover: a unate cover is
// a tautology iff it contains the universal (all don't-care) cube.
func (f *Cover) unateTautology() bool {
	for _, c := range f.Cubes {
		if c.IsUniversal() {
			return true
		}
	}
	return false
}

// IsTautology reports whether the cover is the constant-1 function,
// using the URP tautology check.
func (f *Cover) IsTautology() bool {
	if f.IsEmpty() {
		return false
	}
	// Terminal: a single-cube cover is a tautology iff universal.
	for _, c := range f.Cubes {
		if c.IsUniversal() {
			return true
		}
	}
	// Quick row-of-don't-cares check: if some variable never appears,
	// it can be dropped implicitly (cofactoring keeps correctness, so
	// no special handling needed).
	v := f.MostBinate()
	if v < 0 {
		return f.unateTautology()
	}
	return f.Cofactor(v, true).IsTautology() && f.Cofactor(v, false).IsTautology()
}

// Complement returns the complement of the cover using the URP:
// f' = x·(f_x)' + x'·(f_x')'.
func (f *Cover) Complement() *Cover {
	if f.IsEmpty() {
		return Universal(f.N)
	}
	for _, c := range f.Cubes {
		if c.IsUniversal() {
			return NewCover(f.N)
		}
	}
	if len(f.Cubes) == 1 {
		return complementCube(f.N, f.Cubes[0])
	}
	v := f.MostBinate()
	if v < 0 {
		// Unate cover: pick the most frequently appearing variable to
		// keep recursion balanced.
		v = f.mostFrequent()
	}
	p := f.Cofactor(v, true).Complement()
	n := f.Cofactor(v, false).Complement()
	r := NewCover(f.N)
	for _, c := range p.Cubes {
		x := c.Clone()
		x[v] &= Pos
		if x[v] == Void {
			continue
		}
		r.Cubes = append(r.Cubes, x)
	}
	for _, c := range n.Cubes {
		x := c.Clone()
		x[v] &= Neg
		if x[v] == Void {
			continue
		}
		r.Cubes = append(r.Cubes, x)
	}
	return r.SCC()
}

// mostFrequent returns the variable appearing (in either phase) in the
// most cubes; 0 if none appear.
func (f *Cover) mostFrequent() int {
	u := f.unateProfile()
	best, bestCount := 0, -1
	for i, p := range u {
		if c := p.pos + p.neg; c > bestCount {
			best, bestCount = i, c
		}
	}
	return best
}

// complementCube complements a single cube by De Morgan: the result
// has one cube per literal.
func complementCube(n int, c Cube) *Cover {
	r := NewCover(n)
	for i, l := range c {
		switch l {
		case Pos:
			x := NewCube(n)
			x[i] = Neg
			r.Cubes = append(r.Cubes, x)
		case Neg:
			x := NewCube(n)
			x[i] = Pos
			r.Cubes = append(r.Cubes, x)
		case Void:
			return Universal(n)
		}
	}
	return r
}

// Covers reports whether f ⊇ g (every minterm of g is in f), by
// checking that the cofactor of f with respect to every cube of g is a
// tautology — the URP containment check.
func (f *Cover) Covers(g *Cover) bool {
	for _, c := range g.Cubes {
		if !f.CubeCofactor(c).IsTautology() {
			return false
		}
	}
	return true
}

// Equivalent reports f == g via mutual URP containment.
func (f *Cover) Equivalent(g *Cover) bool {
	return f.Covers(g) && g.Covers(f)
}

// Exists returns the existential quantification ∃v.f = f_v + f_v'.
func (f *Cover) Exists(v int) *Cover {
	return f.Cofactor(v, true).Or(f.Cofactor(v, false))
}

// ForAll returns the universal quantification ∀v.f = f_v · f_v'.
func (f *Cover) ForAll(v int) *Cover {
	return f.Cofactor(v, true).And(f.Cofactor(v, false))
}

// BooleanDifference returns ∂f/∂v = f_v ⊕ f_v'.
func (f *Cover) BooleanDifference(v int) *Cover {
	p := f.Cofactor(v, true)
	n := f.Cofactor(v, false)
	return Xor(p, n)
}

// Xor returns f ⊕ g = f·g' + f'·g.
func Xor(f, g *Cover) *Cover {
	return f.And(g.Complement()).Or(g.And(f.Complement()))
}

// Consensus returns the consensus (smoothing-free) of two cubes if
// they are distance-1, along with true; otherwise nil, false. Used by
// iterated-consensus prime generation, the reference that espresso's
// Quine-McCluskey prime generation is tested against.
func Consensus(c, d Cube) (Cube, bool) {
	if c.Distance(d) != 1 {
		return nil, false
	}
	r := make(Cube, len(c))
	for i := range c {
		x := c[i] & d[i]
		if x == Void {
			r[i] = DC
		} else {
			r[i] = x
		}
	}
	return r, true
}
