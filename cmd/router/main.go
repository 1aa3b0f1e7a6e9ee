// Command router runs the two-layer maze router: either the Figure 6
// unit-test battery (-battery) or a full MCNC-style benchmark case,
// reporting completion rate, wirelength and via counts, with an
// optional ASCII rendering of a layer.
//
// Usage:
//
//	router -battery
//	router -case fract [-seed N] [-render 0|1]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vlsicad/internal/bench"
	"vlsicad/internal/grader"
	"vlsicad/internal/place"
	"vlsicad/internal/route"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("router", flag.ContinueOnError)
	fs.SetOutput(stderr)
	battery := fs.Bool("battery", false, "run the Figure 6 router unit-test battery")
	global := fs.Bool("global", false, "run coarse global routing and print the congestion map")
	caseName := fs.String("case", "fract", "benchmark case")
	seed := fs.Int64("seed", 1, "seed")
	render := fs.Int("render", -1, "render this layer as ASCII after routing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "router:", err)
		return 1
	}

	if *battery {
		fmt.Fprint(stdout, grader.RunRouterBattery(grader.ReferenceRouter))
		return 0
	}
	var c *bench.Case
	for _, bc := range bench.Suite() {
		if bc.Name == *caseName {
			cc := bc
			c = &cc
			break
		}
	}
	if c == nil {
		return fail(fmt.Errorf("unknown case %q", *caseName))
	}
	p := bench.Placement(*c, *seed)
	pl, err := place.Quadratic(p, place.QuadraticOpts{})
	if err != nil {
		return fail(err)
	}
	legal, err := place.Legalize(p, pl)
	if err != nil {
		return fail(err)
	}
	g, nets := bench.Routing(*c, legal, p, *seed, 0.02)
	if *global {
		// Coarse grid: one GCell per 5x5 detailed cells, capacity 6.
		gg := route.NewGGrid(g.W/5+1, g.H/5+1, 6)
		coarse := make([]route.Net, len(nets))
		for i, n := range nets {
			coarse[i] = route.Net{Name: n.Name,
				A: route.Point{X: n.A.X / 5, Y: n.A.Y / 5},
				B: route.Point{X: n.B.X / 5, Y: n.B.Y / 5}}
		}
		gres := gg.GlobalRoute(coarse)
		fmt.Fprintf(stdout, "global route: %s\n", gres)
		fmt.Fprint(stdout, gg.CongestionMap())
		return 0
	}
	res := route.RouteAll(g, nets, route.Opts{
		Alg: route.AStar, Order: route.OrderShortFirst, RipupRounds: 5, Seed: *seed,
	})
	fmt.Fprintf(stdout, "case=%s grid=%dx%d nets=%d routed=%d failed=%d completion=%.1f%% wirelength=%d vias=%d\n",
		c.Name, g.W, g.H, len(nets), len(res.Paths), len(res.Failed),
		100*float64(len(res.Paths))/float64(len(nets)), res.Length, res.Vias)
	if *render >= 0 && *render < route.Layers {
		fmt.Fprint(stdout, route.Render(g, *render, res.Paths))
	}
	return 0
}
