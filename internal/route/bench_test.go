package route

import (
	"fmt"
	"math/rand"
	"testing"
)

// Ablations: BFS/Dijkstra vs A*, and net-ordering policies
// (DESIGN.md §4).

func benchInstance(seed int64) (*Grid, []Net) {
	rng := rand.New(rand.NewSource(seed))
	g := NewGrid(60, 60, DefaultCost())
	for i := 0; i < 150; i++ {
		g.Block(Point{X: rng.Intn(60), Y: rng.Intn(60), L: rng.Intn(Layers)})
	}
	var nets []Net
	for i := 0; i < 60; i++ {
		a := Point{X: rng.Intn(60), Y: rng.Intn(60), L: 0}
		b := Point{X: rng.Intn(60), Y: rng.Intn(60), L: 0}
		if a == b || g.Blocked(a) || g.Blocked(b) {
			continue
		}
		nets = append(nets, Net{Name: fmt.Sprintf("n%d", i), A: a, B: b})
	}
	return g, nets
}

func benchRouteAll(b *testing.B, alg Algorithm, order Order) {
	g, nets := benchInstance(42)
	b.ReportAllocs()
	b.ResetTimer()
	var completion float64
	var expanded int
	for i := 0; i < b.N; i++ {
		res := RouteAll(g.Clone(), nets, Opts{Alg: alg, Order: order, RipupRounds: 3, Seed: 42})
		completion = float64(len(res.Paths)) / float64(len(nets))
		expanded = res.Expanded
	}
	b.ReportMetric(100*completion, "completion_pct")
	b.ReportMetric(float64(expanded), "expanded")
}

func BenchmarkRouteDijkstraGivenOrder(b *testing.B) { benchRouteAll(b, Dijkstra, OrderGiven) }
func BenchmarkRouteAStarGivenOrder(b *testing.B)    { benchRouteAll(b, AStar, OrderGiven) }
func BenchmarkRouteAStarShortFirst(b *testing.B)    { benchRouteAll(b, AStar, OrderShortFirst) }
func BenchmarkRouteAStarLongFirst(b *testing.B)     { benchRouteAll(b, AStar, OrderLongFirst) }

// largeBenchInstance is the flow-scale routing load (EXPERIMENTS.md
// "Net-parallel routing"): a 128×128 two-layer grid, 600 random
// blocks, 220 two-pin nets with distinct pins.
func largeBenchInstance() (*Grid, []Net) {
	rng := rand.New(rand.NewSource(7))
	g := NewGrid(128, 128, DefaultCost())
	for i := 0; i < 600; i++ {
		g.Block(Point{X: rng.Intn(128), Y: rng.Intn(128), L: rng.Intn(Layers)})
	}
	used := map[Point]bool{}
	var nets []Net
	for i := 0; len(nets) < 220 && i < 4000; i++ {
		a := Point{X: rng.Intn(128), Y: rng.Intn(128), L: 0}
		b := Point{X: rng.Intn(128), Y: rng.Intn(128), L: 0}
		if a == b || g.Blocked(a) || g.Blocked(b) || used[a] || used[b] {
			continue
		}
		used[a], used[b] = true, true
		nets = append(nets, Net{Name: fmt.Sprintf("n%d", len(nets)), A: a, B: b})
	}
	return g, nets
}

// BenchmarkRouteLargeGrid measures RouteAll at flow scale. Its one
// sub-benchmark keeps the name "serial" so the recorded trajectory
// (BENCH_PR*.json) keeps gating it under the same key.
func BenchmarkRouteLargeGrid(b *testing.B) {
	g, nets := largeBenchInstance()
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		var routed int
		for i := 0; i < b.N; i++ {
			res := RouteAll(g.Clone(), nets, Opts{Alg: AStar, Order: OrderShortFirst, RipupRounds: 3, Seed: 7})
			routed = len(res.Paths)
		}
		b.ReportMetric(float64(routed), "routed")
	})
}

// BenchmarkRouteAllTaps measures RouteAll on k-pin nets: 100 nets of
// 2 to 5 distinct pins each on the BenchmarkRouteLargeGrid grid.
func BenchmarkRouteAllTaps(b *testing.B) {
	g, _ := largeBenchInstance()
	rng := rand.New(rand.NewSource(8))
	used := map[Point]bool{}
	var nets []Net
	for len(nets) < 100 {
		pins := make([]Point, 0, 5)
		for k := 2 + rng.Intn(4); len(pins) < k; {
			p := Point{X: rng.Intn(128), Y: rng.Intn(128), L: 0}
			if !g.Blocked(p) && !used[p] {
				used[p] = true
				pins = append(pins, p)
			}
		}
		nets = append(nets, Net{Name: fmt.Sprintf("n%d", len(nets)), A: pins[0], B: pins[1], Taps: pins[2:]})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var routed int
	for i := 0; i < b.N; i++ {
		res := RouteAll(g.Clone(), nets, Opts{Alg: AStar, Order: OrderShortFirst, RipupRounds: 3, Seed: 8})
		routed = len(res.Paths)
	}
	b.ReportMetric(float64(routed), "routed")
}

func BenchmarkSingleNetAStarVsDijkstra(b *testing.B) {
	g := NewGrid(100, 100, DefaultCost())
	net := Net{Name: "x", A: Point{X: 2, Y: 3, L: 0}, B: Point{X: 95, Y: 90, L: 0}}
	b.Run("dijkstra", func(b *testing.B) {
		b.ReportAllocs()
		var exp int
		for i := 0; i < b.N; i++ {
			_, _, e, err := RouteNet(g, net, Dijkstra)
			if err != nil {
				b.Fatal(err)
			}
			exp = e
		}
		b.ReportMetric(float64(exp), "expanded")
	})
	b.Run("astar", func(b *testing.B) {
		b.ReportAllocs()
		var exp int
		for i := 0; i < b.N; i++ {
			_, _, e, err := RouteNet(g, net, AStar)
			if err != nil {
				b.Fatal(err)
			}
			exp = e
		}
		b.ReportMetric(float64(exp), "expanded")
	})
}
