package vlsicad

import (
	"crypto/sha256"
	"fmt"
	"io"
	"slices"
	"sort"
	"testing"

	"vlsicad/internal/bench"
	"vlsicad/internal/place"
	"vlsicad/internal/route"
)

// routeDigest hashes the routes RouteAll reports for two-pin nets:
// every path by net name, the failed list, and the length and via
// counts. The search effort, Expanded, is pinned apart from it.
func routeDigest(h io.Writer, res *route.Result) {
	names := make([]string, 0, len(res.Paths))
	for name := range res.Paths {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s", name)
		for _, p := range res.Paths[name] {
			fmt.Fprintf(h, " %d,%d,%d", p.X, p.Y, p.L)
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintf(h, "failed %v\nlength %d vias %d\n", res.Failed, res.Length, res.Vias)
}

// TestRouteTwoPinGolden pins RouteAll's two-pin output byte for byte:
// the fract place-and-route pipeline as cmd/router runs it, and the
// route stage of three generated designs flowed with quadratic
// placement (the flow's nets are two-pin). A router change that keeps
// two-pin behaviour keeps this digest. The expansion counts of the four
// instances are pinned on their own: a search that does less work to
// find the same routes changes them and not the digest.
func TestRouteTwoPinGolden(t *testing.T) {
	const want = "82849eea97967c7e26eb79eee65f9a5fcbc7e0072e5064ac36807d03147c0ee8"
	wantExpanded := []int{292690, 104235, 88333, 155567}
	h := sha256.New()
	var expanded []int

	var fract bench.Case
	for _, c := range bench.Suite() {
		if c.Name == "fract" {
			fract = c
		}
	}
	p := bench.Placement(fract, 1)
	pl, err := place.Quadratic(p, place.QuadraticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	legal, err := place.Legalize(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	g, nets := bench.Routing(fract, legal, p, 1, 0.02)
	res := route.RouteAll(g, nets, route.Opts{
		Alg: route.AStar, Order: route.OrderShortFirst, RipupRounds: 5, Seed: 1,
	})
	routeDigest(h, res)
	expanded = append(expanded, res.Expanded)

	for i, nodes := range []int{40, 50, 60} {
		nw := bench.Network(bench.NetworkSpec{Name: fmt.Sprintf("gen%d", nodes), Inputs: 16, Nodes: nodes, Outputs: 8}, int64(i+1))
		f, err := RunFlowOnNetwork(nw, FlowOpts{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		routeDigest(h, f.Routing)
		expanded = append(expanded, f.Routing.Expanded)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("two-pin routing digest %s, want %s", got, want)
	}
	if !slices.Equal(expanded, wantExpanded) {
		t.Errorf("two-pin routing expanded %v, want %v", expanded, wantExpanded)
	}
}
