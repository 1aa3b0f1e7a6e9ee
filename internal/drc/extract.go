package drc

import (
	"fmt"
	"sort"

	"vlsicad/internal/route"
	"vlsicad/internal/timing"
)

// Parasitic extraction: turn routed wires into RC trees for Elmore
// timing — the traditional course's extraction topic, wired to the
// Week-8 delay model.

// Tech holds per-layer parasitics and via resistance. With
// DefaultTech and ExtractPath it is kept for per-net wire timing
// (ROADMAP "Timing from each net's own wire"), which will charge
// each sink the Elmore delay of its own routed tree.
type Tech struct {
	RPerUnit map[string]float64 // sheet-ish resistance per grid unit
	CPerUnit map[string]float64 // capacitance per grid unit
	RVia     float64
	RDriver  float64
	CLoad    float64
}

// DefaultTech returns teaching-scale parasitics: metal2 (vertical) is
// a little more resistive than metal1. No program calls it yet; it is
// kept with Tech for per-net wire timing.
func DefaultTech() Tech {
	return Tech{
		RPerUnit: map[string]float64{"metal1": 0.05, "metal2": 0.08},
		CPerUnit: map[string]float64{"metal1": 0.10, "metal2": 0.12},
		RVia:     0.50,
		RDriver:  1.00,
		CLoad:    0.20,
	}
}

func layerName(l int) string {
	if l == 0 {
		return "metal1"
	}
	return "metal2"
}

// ExtractPath converts a routed path into an RC tree rooted at the
// driver (the path's first point) and returns the Elmore delay at the
// sink (the last point). No program calls it yet: per-net wire timing
// (ROADMAP "Timing from each net's own wire") will.
func ExtractPath(p route.Path, tech Tech) (*timing.RCTree, float64, error) {
	if len(p) == 0 {
		return nil, 0, fmt.Errorf("drc: empty path")
	}
	t := &timing.RCTree{}
	t.Nodes = append(t.Nodes, timing.RCNode{Name: "drv", Parent: -1, R: tech.RDriver, C: 0})
	for i := 1; i < len(p); i++ {
		var r, c float64
		if p[i].L != p[i-1].L {
			r, c = tech.RVia, 0
		} else {
			layer := layerName(p[i].L)
			r, c = tech.RPerUnit[layer], tech.CPerUnit[layer]
		}
		if i == len(p)-1 {
			c += tech.CLoad
		}
		t.Nodes = append(t.Nodes, timing.RCNode{
			Name:   fmt.Sprintf("p%d", i),
			Parent: i - 1,
			R:      r,
			C:      c,
		})
	}
	d, err := t.SinkDelay()
	if err != nil {
		return nil, 0, err
	}
	return t, d, nil
}

// WiresToShapes converts routed paths into layout rectangles so the
// DRC can check a routed design: each wire segment becomes a rect of
// width pitch/2 centered on its track (grid coordinates scaled by
// pitch). With pitch >= 2*(spacing+width/2) a legally routed design
// is DRC-clean; shrinking the pitch reproduces spacing violations.
func WiresToShapes(paths map[string]route.Path, pitch int) []Rect {
	w := pitch / 2
	if w < 1 {
		w = 1
	}
	off := (pitch - w) / 2
	var names []string
	for n := range paths {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []Rect
	for _, name := range names {
		p := paths[name]
		for i := 1; i < len(p); i++ {
			a, b := p[i-1], p[i]
			if a.L != b.L {
				continue // via: no wire shape
			}
			x0, x1 := a.X, b.X
			if x0 > x1 {
				x0, x1 = x1, x0
			}
			y0, y1 := a.Y, b.Y
			if y0 > y1 {
				y0, y1 = y1, y0
			}
			out = append(out, Rect{
				Layer: layerName(a.L),
				Net:   name,
				X0:    x0*pitch + off, Y0: y0*pitch + off,
				X1: x1*pitch + off + w, Y1: y1*pitch + off + w,
			})
		}
	}
	return out
}
