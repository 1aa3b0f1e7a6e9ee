package route

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomInstance builds a seeded grid + net list dense enough that
// nets compete for corridors.
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

// TestParallelSharedPins covers two nets sharing a pin cell: a and b
// both end on (6,6,0) and both route, while the crossing net c, whose
// straight line runs through that cell, must go around it because
// the shared pin is reserved for a and b.
func TestParallelSharedPins(t *testing.T) {
	g := NewGrid(12, 12, DefaultCost())
	shared := Point{X: 6, Y: 6, L: 0}
	nets := []Net{
		{Name: "a", A: Point{X: 1, Y: 6, L: 0}, B: shared},
		{Name: "b", A: shared, B: Point{X: 11, Y: 6, L: 0}},
		{Name: "c", A: Point{X: 6, Y: 1, L: 0}, B: Point{X: 6, Y: 11, L: 0}},
	}
	res := RouteAll(g, nets, Opts{Alg: AStar, Seed: 1})
	for _, name := range []string{"a", "b"} {
		if _, ok := res.Paths[name]; !ok {
			t.Errorf("net %s sharing pin %v did not route (failed %v)", name, shared, res.Failed)
		}
	}
	for _, pt := range res.Paths["c"] {
		if pt == shared {
			t.Errorf("net c crosses the shared pin %v: %v", shared, res.Paths["c"])
		}
	}
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
