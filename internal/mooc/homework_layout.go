package mooc

import (
	"fmt"
	"math/rand"
	"strings"

	"vlsicad/internal/linsolve"
	"vlsicad/internal/route"
)

// Engine-backed layout homework (Weeks 6-7): quadratic-placement
// questions answered by the Ax=b solver and maze-routing questions
// answered by the course router — mirroring how the real course used
// its tool portals as homework substrates.

// placementQuestion: a 1-D quadratic placement of 3 gates between two
// pads; the student reports one gate's optimal coordinate.
func placementQuestion(week, q int, rng *rand.Rand) Question {
	// Pads at 0 and 10; chain pad-g1-g2-g3-pad with random weights.
	w := make([]float64, 4)
	for i := range w {
		w[i] = float64(1 + rng.Intn(4))
	}
	// Quadratic optimum solves the tridiagonal system A x = b.
	a := linsolve.NewSparse(3)
	b := make([]float64, 3)
	a.Add(0, 0, w[0]+w[1])
	a.Add(0, 1, -w[1])
	a.Add(1, 0, -w[1])
	a.Add(1, 1, w[1]+w[2])
	a.Add(1, 2, -w[2])
	a.Add(2, 1, -w[2])
	a.Add(2, 2, w[2]+w[3])
	b[0] = w[0] * 0
	b[2] = w[3] * 10
	x, res := linsolve.CG(a, b, 1e-12, 1000)
	_ = res
	pick := rng.Intn(3)
	ans := fmt.Sprintf("%.2f", x[pick])
	return Question{
		ID:   fmt.Sprintf("hw%d.q%d", week, q+1),
		Week: week,
		Prompt: fmt.Sprintf(
			"Gates g1,g2,g3 sit on a line between pads at x=0 and x=10, connected "+
				"pad-g1-g2-g3-pad with wire weights %g,%g,%g,%g. At the quadratic optimum, "+
				"what is the x-coordinate of g%d (two decimals)?",
			w[0], w[1], w[2], w[3], pick+1),
		Check: func(s string) bool {
			return strings.TrimSpace(s) == ans
		},
		Answer: ans,
	}
}

// routingQuestion: shortest-cost maze route on a small gridded layer
// pair with one obstacle wall; the student reports the path cost.
func routingQuestion(week, q int, rng *rand.Rand) Question {
	g := route.NewGrid(8, 8, route.DefaultCost())
	wallX := 2 + rng.Intn(4)
	gap := rng.Intn(8)
	for y := 0; y < 8; y++ {
		if y != gap {
			g.Block(route.Point{X: wallX, Y: y, L: 0})
			g.Block(route.Point{X: wallX, Y: y, L: 1})
		}
	}
	net := route.Net{Name: "q", A: route.Point{X: 0, Y: rng.Intn(8), L: 0},
		B: route.Point{X: 7, Y: rng.Intn(8), L: 0}}
	_, cost, _, err := route.RouteNet(g, net, route.AStar)
	if err != nil {
		// Shouldn't happen with one gap; regenerate deterministically.
		return routingQuestion(week, q+100, rng)
	}
	ans := fmt.Sprintf("%d", cost)
	return Question{
		ID:   fmt.Sprintf("hw%d.q%d", week, q+1),
		Week: week,
		Prompt: fmt.Sprintf(
			"On an 8x8 two-layer grid (layer 1 horizontal, layer 2 vertical; "+
				"non-preferred step +%d, via %d), a wall crosses column %d on both layers "+
				"except row %d. What is the minimum cost of a route from (0,%d,L1) to (7,%d,L1)?",
			g.Cost.NonPref, g.Cost.Via, wallX, gap, net.A.Y, net.B.Y),
		Check: func(s string) bool {
			return strings.TrimSpace(s) == ans
		},
		Answer: ans,
	}
}
