package route

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// randomInstance builds a seeded grid + net list dense enough that
// waves regularly collide (nets share corridors).
func randomInstance(seed int64, w, h, blocks, wantNets int) (*Grid, []Net) {
	rng := rand.New(rand.NewSource(seed))
	g := NewGrid(w, h, DefaultCost())
	for i := 0; i < blocks; i++ {
		g.Block(Point{X: rng.Intn(w), Y: rng.Intn(h), L: rng.Intn(Layers)})
	}
	used := map[Point]bool{}
	var nets []Net
	for i := 0; len(nets) < wantNets && i < 50*wantNets; i++ {
		a := Point{X: rng.Intn(w), Y: rng.Intn(h), L: 0}
		b := Point{X: rng.Intn(w), Y: rng.Intn(h), L: 0}
		if a == b || g.Blocked(a) || g.Blocked(b) || used[a] || used[b] {
			continue
		}
		used[a], used[b] = true, true
		nets = append(nets, Net{Name: fmt.Sprintf("n%d", len(nets)), A: a, B: b})
	}
	return g, nets
}

func requireEqualResults(t *testing.T, serial, par *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("%s: parallel result differs from serial", label)
		if serial.Expanded != par.Expanded {
			t.Errorf("  expanded %d vs %d", serial.Expanded, par.Expanded)
		}
		if serial.Length != par.Length || serial.Vias != par.Vias {
			t.Errorf("  length/vias %d/%d vs %d/%d", serial.Length, serial.Vias, par.Length, par.Vias)
		}
		if !reflect.DeepEqual(serial.Failed, par.Failed) {
			t.Errorf("  failed %v vs %v", serial.Failed, par.Failed)
		}
		for name, p := range serial.Paths {
			if !reflect.DeepEqual(p, par.Paths[name]) {
				t.Errorf("  first differing net %s: %v vs %v", name, p, par.Paths[name])
				break
			}
		}
	}
}

// TestParallelMatchesSerial is the core tentpole invariant: for any
// worker count and wave size, RouteAll's Result is byte-identical to
// the serial engine's on the same instance and seed.
func TestParallelMatchesSerial(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 11, 42} {
		g, nets := randomInstance(seed, 40, 40, 180, 50)
		for _, order := range []Order{OrderGiven, OrderShortFirst, OrderLongFirst} {
			serial := RouteAll(g.Clone(), nets, Opts{Alg: AStar, Order: order, RipupRounds: 3, Seed: seed})
			for _, cfg := range []struct{ workers, wave int }{
				{2, 0}, {4, 0}, {8, 0}, {4, 2}, {3, 17}, {16, 64},
			} {
				par := RouteAll(g.Clone(), nets, Opts{
					Alg: AStar, Order: order, RipupRounds: 3, Seed: seed,
					Workers: cfg.workers, WaveSize: cfg.wave,
				})
				requireEqualResults(t, serial, par,
					fmt.Sprintf("seed=%d order=%d workers=%d wave=%d", seed, order, cfg.workers, cfg.wave))
			}
		}
	}
}

// TestParallelMatchesSerialDijkstra covers the non-heuristic search,
// whose larger footprints provoke more wave conflicts.
func TestParallelMatchesSerialDijkstra(t *testing.T) {
	g, nets := randomInstance(5, 32, 32, 100, 40)
	serial := RouteAll(g.Clone(), nets, Opts{Alg: Dijkstra, RipupRounds: 2, Seed: 5})
	par := RouteAll(g.Clone(), nets, Opts{Alg: Dijkstra, RipupRounds: 2, Seed: 5, Workers: 4})
	requireEqualResults(t, serial, par, "dijkstra")
}

// TestParallelConflictHeavy pins instances whose nets all share a
// tight corridor, so nearly every wave commits one net and re-queues
// the rest — the worst case for the protocol and the best test of it.
func TestParallelConflictHeavy(t *testing.T) {
	g := NewGrid(8, 30, DefaultCost())
	var nets []Net
	// Ten nets all crossing the same narrow band.
	for i := 0; i < 10; i++ {
		nets = append(nets, Net{
			Name: fmt.Sprintf("c%d", i),
			A:    Point{X: i % 8, Y: 0, L: 0},
			B:    Point{X: (i*3 + 1) % 8, Y: 29, L: 0},
		})
	}
	serial := RouteAll(g.Clone(), nets, Opts{Alg: AStar, RipupRounds: 3, Seed: 9})
	conflicts, requeued := 0, 0
	par := RouteAll(g.Clone(), nets, Opts{
		Alg: AStar, RipupRounds: 3, Seed: 9, Workers: 4,
		OnWave: func(ws WaveStats) { conflicts += ws.Conflicts; requeued += ws.Requeued },
	})
	requireEqualResults(t, serial, par, "conflict-heavy")
	if conflicts == 0 {
		t.Error("corridor instance provoked no wave conflicts; the conflict path is untested")
	}
	if requeued == 0 {
		t.Error("no nets were requeued")
	}
}

// TestWaveStatsAccounting checks the per-wave telemetry adds up: every
// net is committed or failed exactly once across all waves, and
// requeues equal the sum of deferred batch tails.
func TestWaveStatsAccounting(t *testing.T) {
	g, nets := randomInstance(13, 40, 40, 150, 45)
	var stats []WaveStats
	res := RouteAll(g.Clone(), nets, Opts{
		Alg: AStar, Order: OrderShortFirst, RipupRounds: 1, Seed: 13, Workers: 4,
		OnWave: func(ws WaveStats) { stats = append(stats, ws) },
	})
	totalCommitted, totalFailed := 0, 0
	for i, ws := range stats {
		if ws.Index != i {
			t.Errorf("wave %d has index %d", i, ws.Index)
		}
		if ws.Committed+ws.Failed+ws.Requeued != ws.Nets {
			t.Errorf("wave %d: committed %d + failed %d + requeued %d != nets %d",
				i, ws.Committed, ws.Failed, ws.Requeued, ws.Nets)
		}
		totalCommitted += ws.Committed
		totalFailed += ws.Failed
	}
	if totalCommitted+totalFailed != len(nets) {
		t.Errorf("waves account for %d nets, want %d", totalCommitted+totalFailed, len(nets))
	}
	// The wave phase routed or failed every net; rip-up may only have
	// recovered failures, never lost paths.
	if len(res.Paths) < totalCommitted {
		t.Errorf("result has %d paths, waves committed %d", len(res.Paths), totalCommitted)
	}
}

// TestParallelSharedPins exercises the degenerate case of two nets
// sharing a pin cell: the serial engine lets the second net land on
// the shared pin, and the parallel engine must reproduce that
// byte-for-byte.
func TestParallelSharedPins(t *testing.T) {
	g := NewGrid(12, 12, DefaultCost())
	shared := Point{X: 6, Y: 6, L: 0}
	nets := []Net{
		{Name: "a", A: Point{X: 1, Y: 6, L: 0}, B: shared},
		{Name: "b", A: shared, B: Point{X: 11, Y: 6, L: 0}},
		{Name: "c", A: Point{X: 6, Y: 1, L: 0}, B: Point{X: 6, Y: 11, L: 0}},
	}
	serial := RouteAll(g.Clone(), nets, Opts{Alg: AStar, Seed: 1})
	par := RouteAll(g.Clone(), nets, Opts{Alg: AStar, Seed: 1, Workers: 3, WaveSize: 3})
	requireEqualResults(t, serial, par, "shared pins")
}

// TestParallelIndependentOfGOMAXPROCS locks the engine's output to
// the commit protocol, not the scheduler: the same Workers value must
// give the same Result at 1 and at many procs.
func TestParallelIndependentOfGOMAXPROCS(t *testing.T) {
	g, nets := randomInstance(77, 36, 36, 120, 40)
	run := func() *Result {
		return RouteAll(g.Clone(), nets, Opts{Alg: AStar, Order: OrderShortFirst, RipupRounds: 2, Seed: 77, Workers: 6})
	}
	old := runtime.GOMAXPROCS(1)
	one := run()
	runtime.GOMAXPROCS(8)
	eight := run()
	runtime.GOMAXPROCS(old)
	requireEqualResults(t, one, eight, "gomaxprocs 1 vs 8")
}

// TestPooledSearchReuse hammers RouteNet from concurrent goroutines
// to give the race detector and the epoch-stamped scratch reuse a
// workout: every goroutine must see results identical to a fresh
// computation.
func TestPooledSearchReuse(t *testing.T) {
	g := NewGrid(30, 30, DefaultCost())
	g.Block(Point{X: 15, Y: 15, L: 0})
	net := Net{Name: "x", A: Point{X: 2, Y: 3, L: 0}, B: Point{X: 27, Y: 26, L: 0}}
	want, wantCost, wantExp, err := RouteNet(g, net, AStar)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				p, c, e, err := RouteNet(g, net, AStar)
				if err != nil {
					done <- err
					return
				}
				if c != wantCost || e != wantExp || !reflect.DeepEqual(p, want) {
					done <- fmt.Errorf("pooled rerun diverged: cost %d/%d expanded %d/%d", c, wantCost, e, wantExp)
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
