// Layoutflow walks the back-end thread of the course (Weeks 6-8) on
// an MCNC-style benchmark: quadratic versus annealing versus random
// placement, maze routing with rip-up, and Elmore wire timing — the
// paper's Figure 7 experience at example scale.
package main

import (
	"fmt"
	"log"

	"vlsicad/internal/bench"
	"vlsicad/internal/place"
	"vlsicad/internal/route"
	"vlsicad/internal/timing"
)

func main() {
	c := bench.Suite()[0] // fract: 125 cells, 147 nets
	p := bench.Placement(c, 7)
	fmt.Printf("benchmark %s: %d cells, %d nets on a %dx%d die\n",
		c.Name, p.NCells, len(p.Nets), c.GridW, c.GridH)

	fmt.Println("Week 6: placement algorithms")
	rand := place.Random(p, 7)
	fmt.Printf("  random            HPWL %8.1f\n", p.HPWL(rand))
	annealed, err := place.Anneal(p, place.AnnealOpts{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  simulated anneal  HPWL %8.1f (%d moves, %d accepted)\n",
		annealed.HPWL, annealed.Moves, annealed.Accepted)
	quad, err := place.Quadratic(p, place.QuadraticOpts{})
	if err != nil {
		log.Fatal(err)
	}
	legal, err := place.Legalize(p, quad)
	if err != nil {
		log.Fatal(err)
	}
	if err := place.CheckLegal(p, legal); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  recursive quadratic HPWL %6.1f (legalized)\n", p.HPWL(legal))

	fmt.Println("Week 7: two-layer maze routing")
	g, nets := bench.Routing(c, legal, p, 7, 0.02)
	res := route.RouteAll(g, nets, route.Opts{
		Alg: route.AStar, Order: route.OrderShortFirst, RipupRounds: 5, Seed: 7,
	})
	fmt.Printf("  %d/%d nets routed (%.1f%%), wirelength %d, vias %d, %d search pops\n",
		len(res.Paths), len(nets), 100*float64(len(res.Paths))/float64(len(nets)),
		res.Length, res.Vias, res.Expanded)

	fmt.Println("Week 8: Elmore wire delay across net lengths")
	for _, wl := range []int{5, 10, 20, 40} {
		d, err := timing.WireRC(1.0, 0.05, 0.1, wl, wl, 0.2).SinkDelay()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wire of length %2d: Elmore delay %.3f\n", wl, d)
	}
}
