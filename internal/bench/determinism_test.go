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
func fractPipeline(t *testing.T, workers int) *route.Result {
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
		Workers: workers,
	})
}

// TestPipelineDeterministicAndWorkerIndependent locks the full
// place-and-route pipeline: repeated runs are byte-identical (this
// caught CG summing in map iteration order, fixed in linsolve), and
// neither the parallel router nor the core count changes the answer.
// It runs at GOMAXPROCS 1, 2 and 4 in one process, so a single-core
// machine still exercises the concurrent schedules.
func TestPipelineDeterministicAndWorkerIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref *route.Result
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		serial1 := fractPipeline(t, 1)
		if ref == nil {
			ref = serial1
		}
		if !reflect.DeepEqual(ref, serial1) {
			t.Errorf("GOMAXPROCS=%d: serial pipeline differs from GOMAXPROCS=1: routed %d/%d wl %d/%d",
				procs, len(serial1.Paths), len(ref.Paths), serial1.Length, ref.Length)
		}
		serial2 := fractPipeline(t, 1)
		if !reflect.DeepEqual(serial1, serial2) {
			t.Errorf("GOMAXPROCS=%d: two serial pipeline runs differ: routed %d/%d wl %d/%d",
				procs, len(serial1.Paths), len(serial2.Paths), serial1.Length, serial2.Length)
		}
		par := fractPipeline(t, 4)
		if !reflect.DeepEqual(serial1, par) {
			t.Errorf("GOMAXPROCS=%d: parallel pipeline differs from serial: routed %d vs %d, wl %d vs %d",
				procs, len(par.Paths), len(serial1.Paths), par.Length, serial1.Length)
		}
	}
}
