package route

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
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
	return routeNetState(g, net, alg, st, nil)
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
}

// Result reports a full routing run.
type Result struct {
	Paths    map[string]Path
	Failed   []string
	Length   int
	Vias     int
	Expanded int
}

// RouteAll routes every net in order on one search scratch, marking
// used cells as blocked for later nets, then runs up to
// Opts.RipupRounds rip-up-and-reroute rounds on the nets that failed
// (see ripupRounds). Every net's pins are blocked before the first net
// routes and stay blocked for the whole run, so no wire ever crosses a
// foreign pin.
func RouteAll(g *Grid, nets []Net, opts Opts) *Result {
	if opts.RipupRounds == 0 {
		opts.RipupRounds = 3
	}
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
	st := getState(g.W, g.H)
	defer putState(st)
	var failed []int
	for _, ni := range order {
		path, _, exp, err := routeNetState(g, nets[ni], opts.Alg, st, nil)
		res.Expanded += exp
		if err != nil {
			failed = append(failed, ni)
			continue
		}
		res.Paths[nets[ni].Name] = path
		for _, pt := range path {
			g.Block(pt)
		}
	}
	if len(failed) > 0 && opts.RipupRounds > 0 {
		failed = ripupRounds(g, nets, failed, opts, res, st)
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

// ripupPenalty is what the victim search charges, on top of the step
// cost, for entering a cell of another net's wire. Lower values rip
// more nets per attempt; higher ones send the search on long detours
// around wires it could have ripped.
const ripupPenalty = 20

// ripupRounds is RouteAll's second phase, on its search scratch st.
// For each failed net it runs one penalized search (routeNetState
// with an owner array) that may cross other nets' wires at
// ripupPenalty per cell but never an obstacle or a foreign pin. It
// rips up exactly the nets on that path, routes the failed net, then
// reroutes the victims in seeded-shuffle order. The attempt is kept
// if the routed count does not drop; otherwise every path it routed
// is ripped and the victims' old paths are restored. Ripping a net
// frees only the wire cells between its endpoints: pins stay blocked
// for the whole run. Returns the nets still failed, in the order the
// last round met them.
func ripupRounds(g *Grid, nets []Net, failed []int, opts Opts, res *Result, st *searchState) []int {
	rng := rand.New(rand.NewSource(opts.Seed))
	plane := g.W * g.H
	flat := func(p Point) int { return p.L*plane + p.Y*g.W + p.X }
	// owner maps each wire cell (a path's interior) to its net's
	// index, and every other cell to -1.
	owner := make([]int32, Layers*plane)
	for i := range owner {
		owner[i] = -1
	}
	wire := func(p Path) Path {
		if len(p) < 2 {
			return nil
		}
		return p[1 : len(p)-1]
	}
	place := func(ni int, p Path) {
		res.Paths[nets[ni].Name] = p
		for _, pt := range p {
			g.Block(pt)
		}
		for _, pt := range wire(p) {
			owner[flat(pt)] = int32(ni)
		}
	}
	rip := func(ni int) Path {
		p := res.Paths[nets[ni].Name]
		delete(res.Paths, nets[ni].Name)
		for _, pt := range wire(p) {
			g.Unblock(pt)
			owner[flat(pt)] = -1
		}
		return p
	}
	for ni := range nets {
		if p, ok := res.Paths[nets[ni].Name]; ok {
			place(ni, p)
		}
	}
	route := func(ni int) bool {
		path, _, exp, err := routeNetState(g, nets[ni], opts.Alg, st, nil)
		res.Expanded += exp
		if err != nil {
			return false
		}
		place(ni, path)
		return true
	}
	var victims, redo []int
	var saved []Path
	for round := 0; round < opts.RipupRounds && len(failed) > 0; round++ {
		var still []int
		for _, ni := range failed {
			path, _, exp, err := routeNetState(g, nets[ni], opts.Alg, st, owner)
			res.Expanded += exp
			if err != nil {
				still = append(still, ni)
				continue
			}
			victims = victims[:0]
			for _, pt := range path {
				if v := int(owner[flat(pt)]); v >= 0 && !slices.Contains(victims, v) {
					victims = append(victims, v)
				}
			}
			before := len(res.Paths)
			saved = saved[:0]
			for _, v := range victims {
				saved = append(saved, rip(v))
			}
			redo = append(redo[:0], victims...)
			rng.Shuffle(len(redo), func(i, j int) { redo[i], redo[j] = redo[j], redo[i] })
			ok := route(ni)
			var reFailed []int
			for _, v := range redo {
				if !route(v) {
					reFailed = append(reFailed, v)
				}
			}
			if ok && len(res.Paths) >= before {
				still = append(still, reFailed...)
				continue
			}
			// Revert: rip everything this attempt routed (rip leaves
			// an unrouted net alone), then restore the old paths.
			rip(ni)
			for _, v := range victims {
				rip(v)
			}
			for i, v := range victims {
				place(v, saved[i])
			}
			still = append(still, ni)
		}
		failed = still
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
