package bench

import (
	"reflect"
	"runtime"
	"testing"

	"vlsicad/internal/place"
	"vlsicad/internal/route"
)

// fractPipeline runs the placer+router benchmark pipeline on fract
// exactly as cmd/router does.
func fractPipeline(t *testing.T) *route.Result {
	t.Helper()
	var c *Case
	for _, bc := range Suite() {
		if bc.Name == "fract" {
			cc := bc
			c = &cc
		}
	}
	p := Placement(*c, 1)
	pl, err := place.Quadratic(p, place.QuadraticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	legal, err := place.Legalize(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	g, nets := Routing(*c, legal, p, 1, 0.02)
	return route.RouteAll(g, nets, route.Opts{
		Alg: route.AStar, Order: route.OrderShortFirst, RipupRounds: 5, Seed: 1,
	})
}

// TestPipelineDeterministicAndWorkerIndependent locks the full
// place-and-route pipeline: repeated runs are byte-identical (this
// caught CG summing in map iteration order, fixed in linsolve), and
// the core count does not change the answer. It runs at GOMAXPROCS
// 1, 2 and 4 in one process, so a single-core machine still
// exercises the concurrent placer schedules.
func TestPipelineDeterministicAndWorkerIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref *route.Result
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		run1 := fractPipeline(t)
		if ref == nil {
			ref = run1
		}
		if !reflect.DeepEqual(ref, run1) {
			t.Errorf("GOMAXPROCS=%d: pipeline differs from GOMAXPROCS=1: routed %d/%d wl %d/%d",
				procs, len(run1.Paths), len(ref.Paths), run1.Length, ref.Length)
		}
		run2 := fractPipeline(t)
		if !reflect.DeepEqual(run1, run2) {
			t.Errorf("GOMAXPROCS=%d: two pipeline runs differ: routed %d/%d wl %d/%d",
				procs, len(run1.Paths), len(run2.Paths), run1.Length, run2.Length)
		}
	}
}
