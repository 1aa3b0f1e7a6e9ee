// Package espresso implements heuristic two-level logic minimization
// in the style of the Berkeley Espresso tool the course deployed: the
// EXPAND / IRREDUNDANT / REDUCE loop over positional-cube-notation
// covers, plus an exact Quine–McCluskey/branch-and-bound baseline used
// to measure the heuristic's quality gap.
package espresso

import (
	"sort"

	"vlsicad/internal/cube"
)

// Stats reports minimization effort and quality.
type Stats struct {
	Iterations   int
	InitialCubes int
	InitialLits  int
	FinalCubes   int
	FinalLits    int
}

// Minimize runs the espresso loop on the on-set cover with the given
// don't-care cover (dc may be nil). The result covers every on-set
// minterm outside dc, lies inside on ∪ dc, and is irredundant.
func Minimize(on, dc *cube.Cover) (*cube.Cover, Stats) {
	stats := Stats{
		InitialCubes: len(on.Cubes),
		InitialLits:  on.Literals(),
	}
	if dc == nil {
		dc = cube.NewCover(on.N)
	}
	f := on.Clone().SCC()
	if f.IsEmpty() {
		stats.FinalCubes, stats.FinalLits = 0, 0
		return f, stats
	}
	// The off-set is fixed across the loop: OFF = (ON ∪ DC)'.
	off := f.Or(dc).Complement()

	cost := func(g *cube.Cover) (int, int) { return len(g.Cubes), g.Literals() }
	bestC, bestL := cost(f)
	for {
		stats.Iterations++
		f = expand(f, off)
		f = irredundant(f, dc)
		f = reduce(f, dc)
		f = expand(f, off)
		f = irredundant(f, dc)
		c, l := cost(f)
		if c > bestC || (c == bestC && l >= bestL) {
			break
		}
		bestC, bestL = c, l
		if stats.Iterations >= 10 {
			break
		}
	}
	stats.FinalCubes, stats.FinalLits = cost(f)
	return f, stats
}

// expand enlarges each cube into a prime implicant of ON ∪ DC by
// raising literals that do not make the cube hit the off-set. Cubes
// covered by previously expanded cubes are dropped.
func expand(f, off *cube.Cover) *cube.Cover {
	// Process large cubes first: they are most likely to absorb others.
	cubes := make([]cube.Cube, len(f.Cubes))
	copy(cubes, f.Cubes)
	sort.SliceStable(cubes, func(i, j int) bool {
		return cubes[i].Literals() < cubes[j].Literals()
	})
	out := cube.NewCover(f.N)
	for _, c := range cubes {
		// Skip if already covered by an expanded cube.
		covered := false
		for _, k := range out.Cubes {
			if k.Contains(c) {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		e := c.Clone()
		// Raise literals greedily; the order tries variables whose
		// raising keeps distance to the off-set largest (simple
		// left-to-right pass twice to catch enabled raises).
		for pass := 0; pass < 2; pass++ {
			for v := 0; v < f.N; v++ {
				if e[v] == cube.DC {
					continue
				}
				saved := e[v]
				e[v] = cube.DC
				if intersectsCover(e, off) {
					e[v] = saved
				}
			}
		}
		out.Add(e)
	}
	return out.SCC()
}

// intersectsCover reports whether cube c intersects any cube of g.
func intersectsCover(c cube.Cube, g *cube.Cover) bool {
	for _, d := range g.Cubes {
		if c.Distance(d) == 0 {
			return true
		}
	}
	return false
}

// irredundant removes cubes covered by the rest of the cover plus the
// don't-care set, scanning smallest cubes first.
func irredundant(f, dc *cube.Cover) *cube.Cover {
	cubes := make([]cube.Cube, len(f.Cubes))
	copy(cubes, f.Cubes)
	// Try to remove small cubes first.
	sort.SliceStable(cubes, func(i, j int) bool {
		return cubes[i].Literals() > cubes[j].Literals()
	})
	alive := make([]bool, len(cubes))
	for i := range alive {
		alive[i] = true
	}
	for i, c := range cubes {
		rest := cube.NewCover(f.N)
		for j, d := range cubes {
			if j != i && alive[j] {
				rest.Add(d.Clone())
			}
		}
		for _, d := range dc.Cubes {
			rest.Add(d.Clone())
		}
		if rest.CubeCofactor(c).IsTautology() {
			alive[i] = false
		}
	}
	out := cube.NewCover(f.N)
	for i, c := range cubes {
		if alive[i] {
			out.Add(c)
		}
	}
	return out
}

// reduce shrinks each cube to the supercube of the part of the
// function only it covers, opening room for the next expand to move
// toward a different (hopefully better) prime.
//
// The reduction is sequential, as in the original tool: each cube is
// shrunk against the already-reduced earlier cubes plus the untouched
// later ones. Reducing every cube against the *original* cover in
// parallel is unsound — two cubes sharing a care minterm can each
// shrink away from it on the assumption that the other still covers
// it, silently dropping the minterm (caught by the xcheck harness,
// repro seed=1007).
func reduce(f, dc *cube.Cover) *cube.Cover {
	cur := make([]cube.Cube, len(f.Cubes))
	for i, c := range f.Cubes {
		cur[i] = c.Clone()
	}
	alive := make([]bool, len(cur))
	for i := range alive {
		alive[i] = true
	}
	for i := range cur {
		rest := cube.NewCover(f.N)
		for j, d := range cur {
			if j != i && alive[j] {
				rest.Add(d.Clone())
			}
		}
		for _, d := range dc.Cubes {
			rest.Add(d.Clone())
		}
		// K = part of the cube not covered by the rest.
		k := (&cube.Cover{N: f.N, Cubes: []cube.Cube{cur[i].Clone()}}).Difference(rest)
		if k.IsEmpty() {
			alive[i] = false // fully redundant
			continue
		}
		cur[i] = supercube(k)
	}
	out := cube.NewCover(f.N)
	for i, c := range cur {
		if alive[i] {
			out.Add(c)
		}
	}
	return out
}

// supercube returns the smallest single cube containing every cube of
// the (non-empty) cover: the slot-wise union.
func supercube(f *cube.Cover) cube.Cube {
	s := make(cube.Cube, f.N)
	for _, c := range f.Cubes {
		for i, l := range c {
			s[i] |= l
		}
	}
	return s
}

// Verify checks the espresso output contract: result ⊇ (on \ dc) and
// result ⊆ on ∪ dc. Minterms listed in both the on-set and the
// don't-care set are treated as don't cares, matching the tool's
// type-fd semantics. It returns false with no diagnostics otherwise
// (tests use cube-level checks for details).
func Verify(result, on, dc *cube.Cover) bool {
	if dc == nil {
		dc = cube.NewCover(on.N)
	}
	return result.Covers(on.Difference(dc)) && on.Or(dc).Covers(result)
}
