package place

import (
	"reflect"
	"runtime"
	"testing"
)

// TestQuadraticWorkersInvariant pins the placer's parallelism
// contract: the placement is a pure function of the problem —
// byte-identical for every worker count (run under -race in CI, which
// also shakes out sharing bugs between concurrent region solves).
func TestQuadraticWorkersInvariant(t *testing.T) {
	p := randomProblem(150, 300, 12, 9, 21)
	ref, err := Quadratic(p, QuadraticOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		pl, err := Quadratic(p, QuadraticOpts{Workers: workers})
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		for c := 0; c < p.NCells; c++ {
			if pl.X[c] != ref.X[c] || pl.Y[c] != ref.Y[c] {
				t.Fatalf("Workers=%d: cell %d at (%v, %v), serial run has (%v, %v)",
					workers, c, pl.X[c], pl.Y[c], ref.X[c], ref.Y[c])
			}
		}
	}
}

// TestQuadraticGOMAXPROCSInvariance: the placement is bit-identical
// for every Workers × GOMAXPROCS combination within one process, not
// only across worker counts at the host's proc count.
func TestQuadraticGOMAXPROCSInvariance(t *testing.T) {
	p := randomProblem(150, 300, 12, 9, 21)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref *Placement
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, w := range []int{1, 2, 4} {
			got, err := Quadratic(p, QuadraticOpts{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = got
				continue
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("GOMAXPROCS=%d workers=%d: placement differs from GOMAXPROCS=1 workers=1", procs, w)
			}
		}
	}
}

// TestQuadraticOnLevel checks the per-level statistics stream: levels
// arrive in order, regions partition the cell set, and the leaf counts
// account for every region exactly once.
func TestQuadraticOnLevel(t *testing.T) {
	p := randomProblem(80, 160, 10, 10, 5)
	var stats []QuadLevelStats
	_, err := Quadratic(p, QuadraticOpts{OnLevel: func(st QuadLevelStats) {
		stats = append(stats, st)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no level stats")
	}
	for i, st := range stats {
		if st.Level != i {
			t.Errorf("level %d reported as %d", i, st.Level)
		}
		if st.CGIterations <= 0 {
			t.Errorf("level %d: no CG iterations", i)
		}
	}
	if stats[0].Regions != 1 || stats[0].Cells != p.NCells {
		t.Errorf("root level: %+v, want 1 region over %d cells", stats[0], p.NCells)
	}
	total := 0
	for _, st := range stats {
		if st.Leaves < 0 || st.Leaves > st.Regions {
			t.Errorf("level %d: %d leaves of %d regions", st.Level, st.Leaves, st.Regions)
		}
		total += 2*(st.Regions-st.Leaves) - st.Regions // children minus parents
	}
	if total != -1 {
		// Sum of (children - regions) over all levels telescopes to
		// -1: every region but the root is some level's child.
		t.Errorf("level stats do not telescope: %d, want -1", total)
	}
}

// TestQuadraticEmptyProblem covers the zero-cell early return.
func TestQuadraticEmptyProblem(t *testing.T) {
	p := &Problem{NCells: 0, W: 4, H: 4}
	pl, err := Quadratic(p, QuadraticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if pl == nil || len(pl.X) != 0 {
		t.Fatalf("placement = %+v", pl)
	}
}
