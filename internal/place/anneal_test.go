package place

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// TestAnnealWorkerIndependence is the determinism contract: at a fixed
// seed and chain count, the full AnnealResult is byte-identical for
// every worker count (run under -race in CI, so it also proves the
// chains share no mutable state).
func TestAnnealWorkerIndependence(t *testing.T) {
	p := randomProblem(40, 80, 8, 8, 5)
	base := AnnealOpts{Seed: 42, Chains: 4, MovesPerT: 300, MinTemp: 0.2}
	ref, err := Anneal(p, withWorkers(base, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		got, err := Anneal(p, withWorkers(base, w))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d result differs from serial: HPWL %g vs %g, chain %d vs %d",
				w, got.HPWL, ref.HPWL, got.Chain, ref.Chain)
		}
	}
}

func withWorkers(o AnnealOpts, w int) AnnealOpts {
	o.Workers = w
	return o
}

// TestAnnealSelfCheck runs the incremental-cost invariant at every
// accepted move: the cached per-net boxes must track a full HPWL
// recompute within float tolerance for the whole cooling schedule.
func TestAnnealSelfCheck(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 13, 99} {
		p := randomProblem(25, 50, 7, 7, seed)
		if _, err := Anneal(p, AnnealOpts{Seed: seed, SelfCheck: true, MovesPerT: 400, MinTemp: 0.1}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestAnnealSelfCheckNeutral: SelfCheck consumes no randomness, so it
// cannot change the result it is checking.
func TestAnnealSelfCheckNeutral(t *testing.T) {
	p := randomProblem(20, 40, 6, 6, 7)
	opts := AnnealOpts{Seed: 7, MovesPerT: 200, MinTemp: 0.3}
	plain, err := Anneal(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.SelfCheck = true
	checked, err := Anneal(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, checked) {
		t.Error("SelfCheck changed the annealing result")
	}
}

// TestAnnealMoreChainsNoWorse: the merge takes the best chain, so
// adding chains can only improve (or tie) the returned HPWL when the
// first chain's stream is shared — chain 0 of both runs is identical.
func TestAnnealMoreChainsNoWorse(t *testing.T) {
	p := randomProblem(30, 60, 8, 8, 17)
	one, err := Anneal(p, AnnealOpts{Seed: 17, Chains: 1, MovesPerT: 200, MinTemp: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Anneal(p, AnnealOpts{Seed: 17, Chains: 4, MovesPerT: 200, MinTemp: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if four.HPWL > one.HPWL {
		t.Errorf("4 chains HPWL %g worse than 1 chain %g", four.HPWL, one.HPWL)
	}
	if four.Moves <= one.Moves {
		t.Errorf("4 chains made %d moves, 1 chain %d — totals should sum over chains", four.Moves, one.Moves)
	}
}

// TestAnnealInitialPlacement: refinement mode starts from a given
// legal placement and must never return something worse than what its
// own chains found (and stays legal).
func TestAnnealInitialPlacement(t *testing.T) {
	p := randomProblem(36, 70, 6, 6, 23)
	q, err := Quadratic(p, QuadraticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	legal, err := Legalize(p, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Anneal(p, AnnealOpts{Seed: 23, Initial: legal, MovesPerT: 300, MinTemp: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckLegal(p, res.Placement); err != nil {
		t.Fatalf("refined placement illegal: %v", err)
	}
	// The refinement itself can wander; the caller keeps the better of
	// input/output. Sanity: it should at least be in the same ballpark.
	if res.HPWL > 3*p.HPWL(legal)+10 {
		t.Errorf("refinement exploded HPWL: %g -> %g", p.HPWL(legal), res.HPWL)
	}

	// Rejections: a placement that is not legal, the wrong size, or on
	// a too-small grid.
	if _, err := Anneal(p, AnnealOpts{Initial: NewPlacement(2)}); err == nil {
		t.Error("wrong-size initial placement should fail")
	}
	bad := legal.Clone()
	bad.X[0] = bad.X[1] // overlap
	bad.Y[0] = bad.Y[1]
	if _, err := Anneal(p, AnnealOpts{Initial: bad}); err == nil {
		t.Error("illegal initial placement should fail")
	}
	tiny := &Problem{NCells: 9, W: 2, H: 2, Nets: []Net{{Cells: []int{0, 1}}}}
	if _, err := Anneal(tiny, AnnealOpts{Initial: NewPlacement(9)}); err == nil {
		t.Error("initial placement on an overfull grid should fail")
	}
}

// TestAnnealRunToRunDeterministic: two identical invocations agree
// byte for byte (the old map-iteration evaluation order could flip
// accept decisions between runs).
func TestAnnealRunToRunDeterministic(t *testing.T) {
	p := randomProblem(30, 60, 8, 8, 31)
	opts := AnnealOpts{Seed: 31, Chains: 2, MovesPerT: 250, MinTemp: 0.2}
	a, err := Anneal(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Anneal(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("identical invocations disagree")
	}
}

// TestAnnealOnChainStats: per-chain stats arrive in chain order and
// sum to the result's totals.
func TestAnnealOnChainStats(t *testing.T) {
	p := randomProblem(20, 40, 6, 6, 3)
	var stats []ChainStats
	res, err := Anneal(p, AnnealOpts{
		Seed: 3, Chains: 3, Workers: 2, MovesPerT: 150, MinTemp: 0.3,
		OnChain: func(cs ChainStats) { stats = append(stats, cs) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("got %d chain stats, want 3", len(stats))
	}
	moves, accepted := 0, 0
	for i, cs := range stats {
		if cs.Chain != i {
			t.Errorf("stats[%d].Chain = %d, want in-order delivery", i, cs.Chain)
		}
		moves += cs.Moves
		accepted += cs.Accepted
	}
	if moves != res.Moves || accepted != res.Accepted {
		t.Errorf("chain stats sum to %d/%d moves/accepted, result says %d/%d",
			moves, accepted, res.Moves, res.Accepted)
	}
	if stats[res.Chain].HPWL != res.HPWL {
		t.Errorf("winning chain %d HPWL %g != result %g", res.Chain, stats[res.Chain].HPWL, res.HPWL)
	}
}

// TestAnnealRecomputeFallback: boundary pins must trigger the exact
// rescan path — a run with moves accepted and no recomputes would mean
// the fallback never fires (it must, whenever a boundary pin moves).
func TestAnnealRecomputeFallback(t *testing.T) {
	p := randomProblem(30, 60, 8, 8, 41)
	res, err := Anneal(p, AnnealOpts{Seed: 41, MovesPerT: 300, MinTemp: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recomputes == 0 {
		t.Error("no exact-rescan fallbacks on a dense instance — boundary detection is broken")
	}
}

// refineProblem is a flow-shaped refinement: the legalized quadratic
// placement of a random problem, as RunFlow hands it to the annealer.
func refineProblem(t testing.TB, nCells, nNets int, w, h float64, seed int64) (*Problem, *Placement) {
	t.Helper()
	p := randomProblem(nCells, nNets, w, h, seed)
	q, err := Quadratic(p, QuadraticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	legal, err := Legalize(p, q)
	if err != nil {
		t.Fatal(err)
	}
	return p, legal
}

// TestAnnealRefineGOMAXPROCSInvariance: the flow's refinement (4
// chains from the quadratic start on the default schedule) returns the
// same AnnealResult for every worker count at every GOMAXPROCS, all in
// one process.
func TestAnnealRefineGOMAXPROCSInvariance(t *testing.T) {
	p, legal := refineProblem(t, 40, 80, 8, 8, 7)
	opts := AnnealOpts{Seed: 7, Chains: 4, Initial: legal}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref *AnnealResult
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, w := range []int{1, 2, 4} {
			got, err := Anneal(p, withWorkers(opts, w))
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = got
				continue
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("GOMAXPROCS=%d workers=%d: result differs (HPWL %g vs %g, chain %d vs %d)",
					procs, w, got.HPWL, ref.HPWL, got.Chain, ref.Chain)
			}
		}
	}
}

// TestAnnealSelfCheckDefaultSchedule: the incremental cost tracks a
// full recompute over the default schedule (cost-relative exit, range
// limiter) from a given start. TestAnnealSingleRowGrid covers the
// random start.
func TestAnnealSelfCheckDefaultSchedule(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p, legal := refineProblem(t, 25, 50, 7, 7, seed)
		res, err := Anneal(p, AnnealOpts{Seed: seed, Chains: 2, Initial: legal, SelfCheck: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := CheckLegal(p, res.Placement); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestAnnealWindowTarget: a move's target lies within the window
// radius of the moved cell's slot on both axes, on the grid, and is
// never that slot; every other slot of the clipped window is drawn.
func TestAnnealWindowTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range [][2]int{{12, 12}, {9, 4}, {8, 1}, {1, 5}} {
		sh := &annealShared{cols: g[0], rows: g[1], nSlots: g[0] * g[1]}
		for from := int32(0); from < int32(sh.nSlots); from++ {
			x, y := int(from)%sh.cols, int(from)/sh.cols
			for r := 1; r <= max(sh.cols, sh.rows); r++ {
				want := (min(x+r, sh.cols-1)-max(x-r, 0)+1)*(min(y+r, sh.rows-1)-max(y-r, 0)+1) - 1
				seen := map[int32]bool{}
				for k := 0; k < 20*want; k++ {
					to := sh.windowTarget(rng, from, r)
					tx, ty := int(to)%sh.cols, int(to)/sh.cols
					if to < 0 || to >= int32(sh.nSlots) || abs(tx-x) > r || abs(ty-y) > r {
						t.Fatalf("%dx%d grid: target (%d,%d) outside radius %d of (%d,%d)", sh.cols, sh.rows, tx, ty, r, x, y)
					}
					if to == from {
						t.Fatalf("%dx%d grid, slot (%d,%d), r=%d: drew the cell's own slot", sh.cols, sh.rows, x, y, r)
					}
					seen[to] = true
				}
				if len(seen) != want {
					t.Errorf("%dx%d grid, slot (%d,%d), r=%d: drew %d of %d other window slots", sh.cols, sh.rows, x, y, r, len(seen), want)
				}
			}
		}
	}
	one := &annealShared{cols: 1, rows: 1, nSlots: 1}
	if to := one.windowTarget(rng, 0, 1); to != 0 {
		t.Errorf("one-slot grid: target %d, want 0", to)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestAnnealDefaultScheduleTerminates: the cost-relative exit ends a
// one-cell run, and stops at once when the start costs nothing.
func TestAnnealDefaultScheduleTerminates(t *testing.T) {
	one := &Problem{NCells: 1, W: 4, H: 4,
		Pads: []Pad{{"p", 0, 0}, {"q", 4, 4}},
		Nets: []Net{{Cells: []int{0}, Pads: []int{0, 1}}}}
	res, err := Anneal(one, AnnealOpts{Seed: 1, SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckLegal(one, res.Placement); err != nil {
		t.Fatal(err)
	}

	// Every net's pins coincide at the start: cost 0, nothing to do.
	zero := &Problem{NCells: 2, W: 3, H: 3,
		Pads: []Pad{{"p", 0.5, 0.5}, {"q", 2.5, 2.5}},
		Nets: []Net{{Cells: []int{0}, Pads: []int{0}}, {Cells: []int{1}, Pads: []int{1}}}}
	start := &Placement{X: []float64{0.5, 2.5}, Y: []float64{0.5, 2.5}}
	res, err = Anneal(zero, AnnealOpts{Seed: 1, Initial: start})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves != 0 || res.HPWL != 0 {
		t.Errorf("zero-cost start: %d moves, HPWL %g; want 0 and 0", res.Moves, res.HPWL)
	}

	// No nets at all: cost 0 from any start.
	res, err = Anneal(&Problem{NCells: 3, W: 3, H: 3}, AnnealOpts{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves != 0 {
		t.Errorf("netless problem made %d moves", res.Moves)
	}
}
