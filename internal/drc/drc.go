// Package drc implements the computational-geometry checks of the
// traditional course's back-end weeks (design-rule checking and
// parasitic extraction) — material the MOOC had to omit for schedule
// and that the paper's Figure 11 survey requested back. Geometry is
// axis-aligned rectangles on named layers; checking uses the classic
// scanline sweep.
package drc

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Rect is an axis-aligned rectangle [X0,X1)×[Y0,Y1) on a layer, owned
// by a net (empty owner = obstruction).
type Rect struct {
	Layer          string
	Net            string
	X0, Y0, X1, Y1 int
}

// Valid reports whether the rectangle is non-degenerate.
func (r Rect) Valid() bool { return r.X1 > r.X0 && r.Y1 > r.Y0 }

// Width returns the smaller dimension — the DRC width of the shape.
func (r Rect) Width() int {
	w := r.X1 - r.X0
	if h := r.Y1 - r.Y0; h < w {
		return h
	}
	return r.X1 - r.X0
}

// Area returns the rectangle area.
func (r Rect) Area() int { return (r.X1 - r.X0) * (r.Y1 - r.Y0) }

// overlaps reports open-interval intersection in both axes.
func (r Rect) overlaps(s Rect) bool {
	return r.X0 < s.X1 && s.X0 < r.X1 && r.Y0 < s.Y1 && s.Y0 < r.Y1
}

// expand grows the rectangle by d on every side.
func (r Rect) expand(d int) Rect {
	return Rect{Layer: r.Layer, Net: r.Net, X0: r.X0 - d, Y0: r.Y0 - d, X1: r.X1 + d, Y1: r.Y1 + d}
}

// Rules is a per-layer design-rule set.
type Rules struct {
	MinWidth   map[string]int // per layer
	MinSpacing map[string]int // per layer, between different nets
}

// DefaultRules returns teaching-scale rules for the two routing
// layers.
func DefaultRules() Rules {
	return Rules{
		MinWidth:   map[string]int{"metal1": 2, "metal2": 2},
		MinSpacing: map[string]int{"metal1": 2, "metal2": 2},
	}
}

// Violation is one design-rule error.
type Violation struct {
	Rule  string // "width", "spacing", "short", "degenerate"
	Layer string
	Nets  [2]string
	At    Rect // offending region (for width: the shape itself)
}

func (v Violation) String() string {
	return fmt.Sprintf("%s violation on %s between %q and %q at [%d,%d)x[%d,%d)",
		v.Rule, v.Layer, v.Nets[0], v.Nets[1], v.At.X0, v.At.X1, v.At.Y0, v.At.Y1)
}

// Check runs width, short and spacing checks over the layout and
// returns all violations, deterministically ordered.
func Check(shapes []Rect, rules Rules) []Violation {
	var out []Violation
	byLayer := map[string][]Rect{}
	for _, s := range shapes {
		if !s.Valid() {
			out = append(out, Violation{Rule: "degenerate", Layer: s.Layer, Nets: [2]string{s.Net, s.Net}, At: s})
			continue
		}
		byLayer[s.Layer] = append(byLayer[s.Layer], s)
		if mw, ok := rules.MinWidth[s.Layer]; ok && s.Width() < mw {
			out = append(out, Violation{Rule: "width", Layer: s.Layer, Nets: [2]string{s.Net, s.Net}, At: s})
		}
	}
	var layers []string
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, layer := range layers {
		rects := byLayer[layer]
		spacing := rules.MinSpacing[layer]
		// Sweep over x with shapes bloated by the spacing rule —
		// bloat-and-intersect turns the spacing check into an overlap
		// check.
		out = append(out, sweepLayer(layer, rects, spacing)...)
	}
	// A total order: sweepLayer emits in left-edge order, and shapes
	// that share a left edge come out in an order set by the input, so
	// any tie left here would let the input order show through.
	slices.SortFunc(out, func(a, b Violation) int {
		return cmp.Or(
			cmp.Compare(a.Layer, b.Layer),
			cmp.Compare(a.Rule, b.Rule),
			cmp.Compare(a.At.X0, b.At.X0),
			cmp.Compare(a.At.Y0, b.At.Y0),
			cmp.Compare(a.At.X1, b.At.X1),
			cmp.Compare(a.At.Y1, b.At.Y1),
			cmp.Compare(a.Nets[0], b.Nets[0]),
			cmp.Compare(a.Nets[1], b.Nets[1]),
		)
	})
	return out
}

// sweepLayer finds same-layer shorts (different-net overlaps) and
// spacing violations with a sort-and-sweep over x. With every shape
// bloated by spacing on both sides, it sorts the shapes by left edge
// and pairs each shape with the following ones whose bloated left edge
// lies left of its own bloated right edge: exactly the pairs whose
// bloated x-extents overlap, each examined once. rects is reordered.
func sweepLayer(layer string, rects []Rect, spacing int) []Violation {
	slices.SortFunc(rects, func(a, b Rect) int { return cmp.Compare(a.X0, b.X0) })
	var out []Violation
	for i, r := range rects {
		for _, s := range rects[i+1:] {
			if s.X0-spacing >= r.X1+spacing {
				break
			}
			if r.Net == s.Net {
				continue // same net may touch itself
			}
			switch {
			case r.overlaps(s):
				out = append(out, Violation{
					Rule: "short", Layer: layer,
					Nets: orderedNets(r.Net, s.Net),
					At:   intersection(r, s),
				})
			case r.expand(spacing).overlaps(s):
				out = append(out, Violation{
					Rule: "spacing", Layer: layer,
					Nets: orderedNets(r.Net, s.Net),
					At:   gapRegion(r, s),
				})
			}
		}
	}
	return out
}

func orderedNets(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

func intersection(r, s Rect) Rect {
	return Rect{
		Layer: r.Layer,
		X0:    max(r.X0, s.X0), Y0: max(r.Y0, s.Y0),
		X1: min(r.X1, s.X1), Y1: min(r.Y1, s.Y1),
	}
}

// gapRegion returns the bounding box of the gap between two
// non-overlapping rectangles.
func gapRegion(r, s Rect) Rect {
	return Rect{
		Layer: r.Layer,
		X0:    min(r.X1, s.X1), Y0: min(r.Y1, s.Y1),
		X1: max(r.X0, s.X0), Y1: max(r.Y0, s.Y0),
	}
}
