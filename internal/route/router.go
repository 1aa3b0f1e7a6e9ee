package route

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// Net is a two-pin connection request.
type Net struct {
	Name string
	A, B Point
}

// Path is a routed net: the sequence of grid points from A to B.
type Path []Point

// Wirelength counts wire segments (excluding vias).
func (p Path) Wirelength() int {
	n := 0
	for i := 1; i < len(p); i++ {
		if p[i].L == p[i-1].L {
			n++
		}
	}
	return n
}

// Vias counts layer changes.
func (p Path) Vias() int {
	n := 0
	for i := 1; i < len(p); i++ {
		if p[i].L != p[i-1].L {
			n++
		}
	}
	return n
}

// Algorithm selects the search strategy.
type Algorithm int

const (
	// Dijkstra is uniform-cost wave expansion (the weighted Lee maze).
	Dijkstra Algorithm = iota
	// AStar adds an admissible Manhattan-distance lower bound.
	AStar
)

// RouteNet finds a minimum-cost path for one net on the current grid
// (the net's own pins may be blocked by pin markers; they are treated
// as usable). It returns the path, its cost, and the number of grid
// vertices expanded. Search scratch comes from a process-wide pool,
// so repeated calls allocate little beyond the returned path.
func RouteNet(g *Grid, net Net, alg Algorithm) (Path, int, int, error) {
	st := getState(g.W, g.H)
	defer putState(st)
	return routeNetState(g, net, alg, st)
}

// Order selects the net-processing order for RouteAll.
type Order int

const (
	// OrderGiven routes nets in input order.
	OrderGiven Order = iota
	// OrderShortFirst routes by increasing pin Manhattan distance —
	// the course's recommended heuristic.
	OrderShortFirst
	// OrderLongFirst routes by decreasing distance (for ablation).
	OrderLongFirst
)

// Opts configures RouteAll.
type Opts struct {
	Alg         Algorithm
	Order       Order
	RipupRounds int // extra rounds attempting failed nets (default 3)
	Seed        int64

	// Workers selects the engine: <=1 routes nets strictly serially;
	// >1 routes waves of nets concurrently on that many goroutines
	// and commits their paths in order-index sequence. The Result is
	// byte-identical for every Workers value and every GOMAXPROCS
	// (DESIGN.md §8): commit order, not completion order, decides
	// conflicts, and a conflicting net is re-queued and re-routed
	// against the exact grid state the serial engine would have seen.
	Workers int
	// WaveSize caps how many nets are routed speculatively per wave;
	// 0 means 4×Workers. Any value yields the same Result.
	WaveSize int
	// OnWave, when non-nil, receives one WaveStats per finished wave
	// (parallel engine only). Telemetry stays out of Result so serial
	// and parallel results stay comparable byte-for-byte.
	OnWave func(WaveStats)
}

// WaveStats summarizes one wave of the parallel engine. It holds work
// counts only, so it is deterministic; callers time waves on their
// own clock.
type WaveStats struct {
	Index     int // wave number, from 0
	Nets      int // nets routed speculatively this wave
	Committed int // paths committed
	Failed    int // nets proven unroutable this wave
	Conflicts int // read-set collisions detected (0 or 1)
	Requeued  int // nets pushed back to the next wave
}

// Result reports a full routing run.
type Result struct {
	Paths    map[string]Path
	Failed   []string
	Length   int
	Vias     int
	Expanded int
}

// RouteAll routes every net, marking used cells as blocked for later
// nets, then runs rip-up-and-reroute rounds on failures: each failed
// net gets the blocking wires of one randomly chosen earlier net
// ripped up, both are rerouted. With Opts.Workers > 1 the first phase
// runs net-parallel in waves (see Opts.Workers); the rip-up rounds
// always run serially on whatever still fails.
func RouteAll(g *Grid, nets []Net, opts Opts) *Result {
	if opts.RipupRounds == 0 {
		opts.RipupRounds = 3
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	order := make([]int, len(nets))
	for i := range order {
		order[i] = i
	}
	manhattan := func(n Net) int {
		dx, dy := n.A.X-n.B.X, n.A.Y-n.B.Y
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return dx + dy
	}
	switch opts.Order {
	case OrderShortFirst:
		sort.SliceStable(order, func(i, j int) bool {
			return manhattan(nets[order[i]]) < manhattan(nets[order[j]])
		})
	case OrderLongFirst:
		sort.SliceStable(order, func(i, j int) bool {
			return manhattan(nets[order[i]]) > manhattan(nets[order[j]])
		})
	}

	// Reserve every net's pins up front so no wire may cross a foreign
	// pin (each net's own pins remain usable to it: RouteNet treats
	// the net's endpoints as free).
	for i := range nets {
		for _, p := range []Point{nets[i].A, nets[i].B} {
			if g.In(p) && !g.Blocked(p) {
				g.Block(p)
			}
		}
	}
	res := &Result{Paths: map[string]Path{}}
	blockPath := func(p Path) {
		for _, pt := range p {
			g.Block(pt)
		}
	}
	unblockPath := func(p Path) {
		for _, pt := range p {
			g.Unblock(pt)
		}
	}
	routeOne := func(ni int) bool {
		path, _, exp, err := RouteNet(g, nets[ni], opts.Alg)
		res.Expanded += exp
		if err != nil {
			return false
		}
		res.Paths[nets[ni].Name] = path
		blockPath(path)
		return true
	}
	var failed []int
	if opts.Workers > 1 {
		failed = routeWaves(g, nets, order, opts, res)
	} else {
		for _, ni := range order {
			if !routeOne(ni) {
				failed = append(failed, ni)
			}
		}
	}
	// candidates returns routed nets whose paths cross the failed
	// net's bounding box (the likely blockers), falling back to all.
	candidates := func(n Net) []string {
		x0, x1 := n.A.X, n.B.X
		if x0 > x1 {
			x0, x1 = x1, x0
		}
		y0, y1 := n.A.Y, n.B.Y
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		margin := 2
		var hit, all []string
		for name, p := range res.Paths {
			all = append(all, name)
			for _, pt := range p {
				if pt.X >= x0-margin && pt.X <= x1+margin && pt.Y >= y0-margin && pt.Y <= y1+margin {
					hit = append(hit, name)
					break
				}
			}
		}
		sort.Strings(hit)
		sort.Strings(all)
		if len(hit) > 0 {
			return hit
		}
		return all
	}
	idxOf := map[string]int{}
	for i := range nets {
		idxOf[nets[i].Name] = i
	}
	for round := 0; round < opts.RipupRounds && len(failed) > 0; round++ {
		var still []int
		for _, ni := range failed {
			names := candidates(nets[ni])
			if len(names) == 0 {
				still = append(still, ni)
				continue
			}
			// Rip up every net crossing the failed net's bounding box,
			// route the failed net first, then reroute the victims
			// (shuffled). Keep the outcome only if the total routed
			// count does not decrease; otherwise restore the old state.
			before := len(res.Paths)
			saved := map[string]Path{}
			for _, name := range names {
				saved[name] = res.Paths[name]
				unblockPath(res.Paths[name])
				delete(res.Paths, name)
			}
			order := append([]string(nil), names...)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			ok := routeOne(ni)
			var reFailed []int
			for _, name := range order {
				if !routeOne(idxOf[name]) {
					reFailed = append(reFailed, idxOf[name])
				}
			}
			after := len(res.Paths)
			if !ok || after < before {
				// Revert: drop everything routed in this attempt and
				// restore the saved paths.
				if ok {
					unblockPath(res.Paths[nets[ni].Name])
					delete(res.Paths, nets[ni].Name)
				}
				for _, name := range names {
					if p, routed := res.Paths[name]; routed {
						unblockPath(p)
						delete(res.Paths, name)
					}
				}
				for name, p := range saved {
					res.Paths[name] = p
					blockPath(p)
				}
				still = append(still, ni)
				continue
			}
			still = append(still, reFailed...)
		}
		failed = still
	}
	for _, ni := range failed {
		res.Failed = append(res.Failed, nets[ni].Name)
	}
	sort.Strings(res.Failed)
	for _, p := range res.Paths {
		res.Length += p.Wirelength()
		res.Vias += p.Vias()
	}
	return res
}

// spec is one wave net's speculative result.
type spec struct {
	path     Path
	expanded int
	failed   bool
	touched  []int32 // search read set, reused wave-to-wave
}

// routeWaves is the net-parallel first phase: route the next WaveSize
// nets of the order concurrently against the current grid as a
// read-only snapshot, then commit in order-index sequence. A net
// whose search read set intersects a cell committed earlier in the
// same wave — or that follows such a net in the wave — is re-queued,
// so every committed path (and every recorded failure) is exactly
// what the serial engine would have produced; see DESIGN.md §8 for
// the argument. Returns the failed net indices in serial order.
func routeWaves(g *Grid, nets []Net, order []int, opts Opts, res *Result) []int {
	workers := opts.Workers
	waveSize := opts.WaveSize
	if waveSize <= 0 {
		waveSize = 4 * workers
	}
	plane := g.W * g.H
	// stamp marks cells committed in the current wave (by epoch), the
	// conflict test for later order indices of the same wave.
	stamp := make([]uint32, Layers*plane)
	var epoch uint32
	specs := make([]spec, waveSize)
	pending := order
	var failed []int
	for waveIdx := 0; len(pending) > 0; waveIdx++ {
		n := waveSize
		if n > len(pending) {
			n = len(pending)
		}
		batch := pending[:n]
		// Search phase: the grid is a read-only snapshot; workers
		// claim batch slots by atomic counter. Each worker keeps one
		// pooled searchState for its whole run.
		var next int32
		nw := workers
		if nw > n {
			nw = n
		}
		var wg sync.WaitGroup
		for wi := 0; wi < nw; wi++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st := getState(g.W, g.H)
				defer putState(st)
				for {
					i := int(atomic.AddInt32(&next, 1)) - 1
					if i >= n {
						return
					}
					path, _, exp, err := routeNetState(g, nets[batch[i]], opts.Alg, st)
					specs[i].path = path
					specs[i].expanded = exp
					specs[i].failed = err != nil
					specs[i].touched = append(specs[i].touched[:0], st.touched...)
				}
			}()
		}
		wg.Wait()
		// Commit phase, strictly in order-index sequence.
		epoch++
		committed, failedHere, conflicts := 0, 0, 0
		commitEnd := n
		for i := 0; i < n; i++ {
			s := &specs[i]
			hit := false
			for _, c := range s.touched {
				if stamp[c] == epoch {
					hit = true
					break
				}
			}
			if hit {
				// This net's search read cells an earlier commit of
				// this wave just claimed; its result (and those of
				// every net after it, which assumed this net routed
				// against the same snapshot) may diverge from the
				// serial engine. Re-queue them all for the next wave.
				conflicts++
				commitEnd = i
				break
			}
			res.Expanded += s.expanded
			if s.failed {
				failed = append(failed, batch[i])
				failedHere++
				continue
			}
			res.Paths[nets[batch[i]].Name] = s.path
			for _, pt := range s.path {
				g.Block(pt)
				stamp[pt.L*plane+pt.Y*g.W+pt.X] = epoch
			}
			committed++
		}
		pending = pending[commitEnd:]
		if opts.OnWave != nil {
			opts.OnWave(WaveStats{
				Index: waveIdx, Nets: n, Committed: committed,
				Failed: failedHere, Conflicts: conflicts,
				Requeued: n - commitEnd,
			})
		}
	}
	return failed
}

// Validate checks that a path is a legal route for the net on an
// obstacle grid: contiguous unit steps, endpoints matching the pins,
// and no point on a blocked cell (pins excepted). This is exactly the
// legality check the course auto-grader ran on submitted routes.
func Validate(g *Grid, net Net, p Path) error {
	if len(p) == 0 {
		return fmt.Errorf("route: empty path for %s", net.Name)
	}
	if p[0] != net.A || p[len(p)-1] != net.B {
		return fmt.Errorf("route: path endpoints %v..%v do not match pins %v..%v",
			p[0], p[len(p)-1], net.A, net.B)
	}
	for i, pt := range p {
		if !g.In(pt) {
			return fmt.Errorf("route: point %v off grid", pt)
		}
		if pt != net.A && pt != net.B && g.Blocked(pt) {
			return fmt.Errorf("route: point %v blocked", pt)
		}
		if i > 0 {
			if sc := g.StepCost(p[i-1], pt); sc < 0 {
				return fmt.Errorf("route: illegal step %v -> %v", p[i-1], pt)
			}
		}
	}
	return nil
}

// PathCost recomputes the cost of a path under the grid's cost model.
func PathCost(g *Grid, p Path) int {
	total := 0
	for i := 1; i < len(p); i++ {
		total += g.StepCost(p[i-1], p[i])
	}
	return total
}
