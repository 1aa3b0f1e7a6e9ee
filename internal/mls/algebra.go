// Package mls implements multi-level logic synthesis in the SIS/MIS
// tradition the course teaches in Weeks 3–4: the algebraic model
// (weak division, kernels and co-kernels), factoring, common-divisor
// extraction, node elimination and don't-care-based simplification,
// all over the netlist.Network representation.
package mls

import "slices"

// ALit is an algebraic literal: variable v in positive phase encodes
// as 2v, complemented as 2v+1. The algebraic model treats x and x' as
// unrelated symbols.
type ALit int

// AVar returns the literal's variable index.
func (l ALit) AVar() int { return int(l) >> 1 }

// Neg reports whether the literal is complemented.
func (l ALit) Neg() bool { return l&1 == 1 }

// ACube is a product of algebraic literals, kept sorted and duplicate
// free.
type ACube []ALit

// ACover is a sum of algebraic cubes.
type ACover []ACube

// Lits counts total literals.
func (f ACover) Lits() int {
	n := 0
	for _, c := range f {
		n += len(c)
	}
	return n
}

// Clone deep-copies the cover.
func (f ACover) Clone() ACover {
	out := make(ACover, len(f))
	for i, c := range f {
		out[i] = append(ACube(nil), c...)
	}
	return out
}

func (c ACube) clone() ACube { return append(ACube(nil), c...) }

func (c ACube) sortInPlace() { slices.Sort(c) }

// normalize sorts cubes and literals and removes duplicate cubes. The
// sorts need not be stable: equal literals are identical, and equal
// cubes are duplicates that the compaction drops.
func (f ACover) normalize() ACover {
	for _, c := range f {
		c.sortInPlace()
	}
	slices.SortFunc(f, slices.Compare[ACube])
	return slices.CompactFunc(f, slices.Equal[ACube])
}

// containsAll reports whether cube a contains every literal of b
// (i.e. b divides a). Both must be sorted.
func containsAll(a, b ACube) bool {
	i := 0
	for _, l := range b {
		for i < len(a) && a[i] < l {
			i++
		}
		if i >= len(a) || a[i] != l {
			return false
		}
		i++
	}
	return true
}

// cubeQuotient returns a / b (literals of a not in b); valid only when
// b divides a.
func cubeQuotient(a, b ACube) ACube {
	var out ACube
	i := 0
	for _, l := range a {
		if i < len(b) && b[i] == l {
			i++
			continue
		}
		out = append(out, l)
	}
	return out
}

// cubeProduct multiplies two disjoint cubes.
func cubeProduct(a, b ACube) ACube {
	out := append(a.clone(), b...)
	out.sortInPlace()
	return out
}

// divide performs weak (algebraic) division F / D for normalized f
// and d, returning quotient and remainder with F = Q·D + R and Q
// maximal. It neither copies nor modifies f and d. When there is no
// quotient the remainder is f itself; otherwise its cubes are fresh.
func divide(f, d ACover) (q, r ACover) {
	// Quotient = intersection over d's cubes of per-cube quotients.
	var qSet ACover
	for di, dc := range d {
		var cur ACover
		for _, fc := range f {
			if containsAll(fc, dc) {
				cur = append(cur, cubeQuotient(fc, dc))
			}
		}
		cur = cur.normalize()
		if di == 0 {
			qSet = cur
		} else {
			qSet = intersectCovers(qSet, cur)
		}
		if len(qSet) == 0 {
			return nil, f
		}
	}
	q = qSet
	// R = F - Q*D (cube set difference).
	product := map[string]bool{}
	for _, qc := range q {
		for _, dc := range d {
			product[cubeKey(cubeProduct(qc, dc))] = true
		}
	}
	for _, fc := range f {
		if !product[cubeKey(fc)] {
			r = append(r, fc.clone())
		}
	}
	return q, r
}

func cubeKey(c ACube) string {
	return string(appendCubeKey(make([]byte, 0, len(c)*3), c))
}

func appendCubeKey(b []byte, c ACube) []byte {
	for _, l := range c {
		b = append(b, byte(l), byte(l>>8), ',')
	}
	return b
}

func intersectCovers(a, b ACover) ACover {
	keys := map[string]bool{}
	for _, c := range b {
		keys[cubeKey(c)] = true
	}
	var out ACover
	for _, c := range a {
		if keys[cubeKey(c)] {
			out = append(out, c)
		}
	}
	return out
}

// MakeCubeFree divides out the largest common cube of the cover and
// returns the cube-free cover plus the common cube.
func MakeCubeFree(f ACover) (ACover, ACube) {
	if len(f) == 0 {
		return f, nil
	}
	common := f[0].clone()
	for _, c := range f[1:] {
		var next ACube
		for _, l := range common {
			if containsAll(c, ACube{l}) {
				next = append(next, l)
			}
		}
		common = next
		if len(common) == 0 {
			break
		}
	}
	if len(common) == 0 {
		return f, nil
	}
	out := make(ACover, len(f))
	for i, c := range f {
		out[i] = cubeQuotient(c, common)
	}
	return out, common
}

// IsCubeFree reports whether no single literal divides every cube.
func IsCubeFree(f ACover) bool {
	_, common := MakeCubeFree(f)
	return len(common) == 0
}

// Kernel pairs a kernel (cube-free quotient) with its co-kernel cube.
type Kernel struct {
	K        ACover
	CoKernel ACube
}

// Kernels returns all kernels of the cover using the course's
// recursive KERNEL algorithm (with the level-ordering optimization).
// The cover itself appears if it is cube-free (the level-0 kernel).
func Kernels(f ACover) []Kernel {
	f = f.Clone().normalize()
	var out []Kernel
	seen := map[string]bool{}
	var rec func(g ACover, minLit ALit, co ACube)
	rec = func(g ACover, minLit ALit, co ACube) {
		lits := literalCounts(g)
		var cands []ALit
		for l, cnt := range lits {
			if cnt >= 2 {
				cands = append(cands, l)
			}
		}
		slices.Sort(cands)
		for _, l := range cands {
			if l < minLit {
				continue
			}
			q, _ := divide(g, ACover{{l}})
			qf, c := MakeCubeFree(q)
			// Skip if the common cube contains a literal below l
			// (kernel already produced elsewhere).
			skip := false
			for _, cl := range c {
				if cl < l {
					skip = true
					break
				}
			}
			if skip || len(qf) < 2 {
				continue
			}
			// Dropping the common cube can reorder the cubes;
			// qf's cubes are fresh, so normalize in place.
			qf = qf.normalize()
			newCo := cubeProduct(cubeProduct(co, ACube{l}), c)
			key := coverKey(qf) + "@" + cubeKey(newCo)
			if !seen[key] {
				seen[key] = true
				out = append(out, Kernel{K: qf, CoKernel: newCo})
			}
			rec(qf, l+1, newCo)
		}
	}
	rec(f, 0, nil)
	if IsCubeFree(f) && len(f) >= 2 {
		out = append(out, Kernel{K: f, CoKernel: nil})
	}
	return out
}

func literalCounts(f ACover) map[ALit]int {
	out := map[ALit]int{}
	for _, c := range f {
		for _, l := range c {
			out[l]++
		}
	}
	return out
}

// coverKey identifies a normalized cover.
func coverKey(f ACover) string {
	var b []byte
	for _, c := range f {
		b = append(appendCubeKey(b, c), ';')
	}
	return string(b)
}
