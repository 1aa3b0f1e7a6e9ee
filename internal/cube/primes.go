package cube

// Prime generation by iterated consensus — the Week-1 classic: keep
// adding consensus cubes and absorbing contained ones until closure;
// the surviving cubes are exactly the prime implicants.

// Primes returns all prime implicants of the cover's function using
// iterated consensus. Intended for teaching-scale functions (the
// closure can be exponential). No program calls it: it is the
// textbook reference that espresso's Quine-McCluskey prime generation
// is tested against.
func (f *Cover) Primes() *Cover {
	cur := f.Clone().SCC()
	for {
		changed := false
		n := len(cur.Cubes)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				c, ok := Consensus(cur.Cubes[i], cur.Cubes[j])
				if !ok {
					continue
				}
				// Skip if already contained in some cube.
				contained := false
				for _, d := range cur.Cubes {
					if d.Contains(c) {
						contained = true
						break
					}
				}
				if !contained {
					cur.Add(c)
					changed = true
				}
			}
		}
		cur = cur.SCC()
		if !changed {
			break
		}
	}
	// After closure + single-cube containment, every cube is prime.
	return cur
}
