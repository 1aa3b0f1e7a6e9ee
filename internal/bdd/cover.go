package bdd

import "vlsicad/internal/cube"

// Bridges between the two Week-1/Week-2 representations: cube covers
// (positional cube notation) and BDDs.

// FromCover builds the BDD of a sum-of-products cover. The manager
// must have at least cover.N variables; cover variable i maps to
// manager variable i.
func FromCover(m *Manager, f *cube.Cover) Node {
	vars := make([]Node, f.N)
	for i := range vars {
		vars[i] = m.Var(i)
	}
	r := FalseNode
	for _, c := range f.Cubes {
		r = m.Or(r, Product(m, c, vars))
	}
	return r
}

// Product builds the BDD of the product term c over the given input
// functions: cube variable i stands for in[i].
func Product(m *Manager, c cube.Cube, in []Node) Node {
	r := TrueNode
	for i, l := range c {
		switch l {
		case cube.Pos:
			r = m.And(r, in[i])
		case cube.Neg:
			r = m.And(r, m.Not(in[i]))
		case cube.Void:
			return FalseNode
		}
	}
	return r
}

// ToCover extracts a (not necessarily minimal) sum-of-products cover
// from a BDD by enumerating its satisfying cubes.
func ToCover(m *Manager, f Node, nvars int) *cube.Cover {
	out := cube.NewCover(nvars)
	for _, sat := range m.AllSat(f, 0) {
		c := cube.NewCube(nvars)
		for v := 0; v < nvars && v < len(sat); v++ {
			switch sat[v] {
			case 1:
				c[v] = cube.Pos
			case 0:
				c[v] = cube.Neg
			}
		}
		out.Add(c)
	}
	return out
}
