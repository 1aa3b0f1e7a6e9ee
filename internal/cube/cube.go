// Package cube implements computational Boolean algebra over covers of
// cubes in positional cube notation (PCN), the Week-1 substrate of the
// VLSI CAD: Logic to Layout course and the engine behind software
// Project 1 ("Boolean Data Structures & Computation").
//
// A Boolean function of n variables is represented as a sum-of-products
// cover: a set of cubes, each cube assigning one of four codes to every
// variable. The package provides the Unate Recursive Paradigm (URP)
// operations taught in the course: tautology checking, complement,
// intersection, containment, cofactors, Boolean difference and
// quantification.
package cube

import "strings"

// Lit is the positional-cube-notation code for one variable in one cube.
//
// The encoding follows the course convention: bit 0 set means the
// variable may be 1 in this cube, bit 1 set means it may be 0.
type Lit uint8

const (
	// Void marks an empty (infeasible) variable slot; any cube
	// containing a Void slot denotes the empty set.
	Void Lit = 0b00
	// Pos means the variable appears in true form (x).
	Pos Lit = 0b01
	// Neg means the variable appears in complemented form (x').
	Neg Lit = 0b10
	// DC means the variable does not appear (don't care, "11").
	DC Lit = 0b11
)

// String renders the PCN code as the course writes it: "01", "10", "11"
// or "00".
func (l Lit) String() string {
	switch l {
	case Void:
		return "00"
	case Pos:
		return "01"
	case Neg:
		return "10"
	default:
		return "11"
	}
}

// Cube is a product term over a fixed number of variables. The i-th
// element gives the PCN code of variable i.
type Cube []Lit

// NewCube returns a cube of n variables with every slot set to don't
// care (the universal cube).
func NewCube(n int) Cube {
	c := make(Cube, n)
	for i := range c {
		c[i] = DC
	}
	return c
}

// Clone returns an independent copy of c.
func (c Cube) Clone() Cube {
	d := make(Cube, len(c))
	copy(d, c)
	return d
}

// IsVoid reports whether the cube denotes the empty set, i.e. any
// variable slot is 00.
func (c Cube) IsVoid() bool {
	for _, l := range c {
		if l == Void {
			return true
		}
	}
	return false
}

// IsUniversal reports whether every slot is don't care, i.e. the cube
// covers the whole Boolean space.
func (c Cube) IsUniversal() bool {
	for _, l := range c {
		if l != DC {
			return false
		}
	}
	return true
}

// Literals counts the variables that appear (positively or negatively)
// in the cube.
func (c Cube) Literals() int {
	n := 0
	for _, l := range c {
		if l == Pos || l == Neg {
			n++
		}
	}
	return n
}

// And intersects two cubes slot-wise. The result is void if the cubes
// conflict in any variable.
func (c Cube) And(d Cube) Cube {
	if len(c) != len(d) {
		panic("cube: And on cubes of different width")
	}
	r := make(Cube, len(c))
	for i := range c {
		r[i] = c[i] & d[i]
	}
	return r
}

// Contains reports whether c covers d, i.e. every minterm of d is a
// minterm of c. In PCN this is slot-wise bit containment.
func (c Cube) Contains(d Cube) bool {
	if len(c) != len(d) {
		panic("cube: Contains on cubes of different width")
	}
	if d.IsVoid() {
		return true
	}
	for i := range c {
		if c[i]&d[i] != d[i] {
			return false
		}
	}
	return true
}

// Distance counts the variables in which c and d have an empty
// intersection. Distance 0 means the cubes intersect; distance 1 means
// they can be merged by the consensus/sharp operations.
func (c Cube) Distance(d Cube) int {
	n := 0
	for i := range c {
		if c[i]&d[i] == Void {
			n++
		}
	}
	return n
}

// Cofactor returns the Shannon cofactor of the cube with respect to
// variable v taken at the given phase (true: x=1, false: x=0). The
// second result is false when the cube vanishes under the cofactor.
func (c Cube) Cofactor(v int, phase bool) (Cube, bool) {
	want := Pos
	if !phase {
		want = Neg
	}
	if c[v]&want == Void {
		return nil, false
	}
	r := c.Clone()
	r[v] = DC
	return r, true
}

// Eval evaluates the cube on a complete variable assignment.
func (c Cube) Eval(assign []bool) bool {
	for i, l := range c {
		switch l {
		case Void:
			return false
		case Pos:
			if !assign[i] {
				return false
			}
		case Neg:
			if assign[i] {
				return false
			}
		}
	}
	return true
}

// String renders the cube in the course's bit-pair notation, e.g.
// "[01 11 10]".
func (c Cube) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, l := range c {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(l.String())
	}
	b.WriteByte(']')
	return b.String()
}

// Row renders the cube in the 0/1/- row form of PLA and BLIF files,
// the inverse of ParseCube: '1' for Pos, '0' for Neg and '-' for DC
// (and for Void, which the row form cannot express).
func (c Cube) Row() string {
	row := make([]byte, len(c))
	for i, l := range c {
		switch l {
		case Pos:
			row[i] = '1'
		case Neg:
			row[i] = '0'
		default:
			row[i] = '-'
		}
	}
	return string(row)
}

// Minterm returns the cube of minterm m over n variables: variable i
// is Pos when bit i of m is set and Neg otherwise.
func Minterm(n int, m uint) Cube {
	c := make(Cube, n)
	for i := range c {
		if m&(1<<uint(i)) != 0 {
			c[i] = Pos
		} else {
			c[i] = Neg
		}
	}
	return c
}
