package route

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
)

// Net is a connection request. A two-pin net joins A and B; a k-pin
// net also lists its further pins as Taps, which RouteAll joins to
// the A–B trunk by branches.
type Net struct {
	Name string
	A, B Point
	Taps []Point
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

// RouteNet finds a minimum-cost path for one two-pin net on the
// current grid (the net's own pins may be blocked by pin markers; they
// are treated as usable). It returns the path, its cost, and the
// search's pops: the vertices A* expanded plus those of the flood
// from B that ends the search early when B is walled off from A (see
// routeNetState). Search scratch comes from a
// process-wide pool, so repeated calls allocate little beyond the
// returned path. A net with taps is an error: RouteAll routes those.
func RouteNet(g *Grid, net Net, alg Algorithm) (Path, int, int, error) {
	if len(net.Taps) > 0 {
		return nil, 0, 0, fmt.Errorf("route: net %s has %d taps; RouteNet routes two-pin nets", net.Name, len(net.Taps))
	}
	st := getState(g.W, g.H)
	defer putState(st)
	return routeNetState(g, net.Name, []Point{net.A}, net.B, alg, st, nil)
}

// Order selects the net-processing order for RouteAll.
type Order int

const (
	// OrderGiven routes nets in input order.
	OrderGiven Order = iota
	// OrderShortFirst routes by increasing half-perimeter of the pins'
	// bounding box (the A–B Manhattan distance for a two-pin net) —
	// the course's recommended heuristic.
	OrderShortFirst
	// OrderLongFirst routes by decreasing half-perimeter (for
	// ablation).
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
	// Paths holds each routed net's trunk, the path from A to B.
	Paths map[string]Path
	// Branches holds, for each routed net with taps, one path per tap
	// in join order, from a cell of the tree built before it to the
	// tap. It is nil when no net has taps.
	Branches map[string][]Path
	Failed   []string
	Length   int // wire segments over trunks and branches
	Vias     int // layer changes over trunks and branches
	// Expanded is the search work over every search of the run: A*
	// expansions plus the pops of the plain searches' target floods.
	Expanded int
}

// RouteAll routes every net in order on one search scratch, marking
// used cells as blocked for later nets, then runs up to
// Opts.RipupRounds rip-up-and-reroute rounds on the nets that failed
// (see ripupRounds). Every net's pins are blocked before the first net
// routes and stay blocked for the whole run, so no wire ever crosses a
// foreign pin. A net is routed only when its whole tree is: the trunk
// from A to B, then one branch per tap (see grow).
func RouteAll(g *Grid, nets []Net, opts Opts) *Result {
	if opts.RipupRounds == 0 {
		opts.RipupRounds = 3
	}
	order := make([]int, len(nets))
	for i := range order {
		order[i] = i
	}
	switch opts.Order {
	case OrderShortFirst:
		sort.SliceStable(order, func(i, j int) bool {
			return halfPerimeter(nets[order[i]]) < halfPerimeter(nets[order[j]])
		})
	case OrderLongFirst:
		sort.SliceStable(order, func(i, j int) bool {
			return halfPerimeter(nets[order[i]]) > halfPerimeter(nets[order[j]])
		})
	}

	// Reserve every net's pins up front so no wire may cross a foreign
	// pin (each search treats its own target pin as free, and its
	// sources need no entry).
	res := &Result{Paths: map[string]Path{}}
	for i := range nets {
		if len(nets[i].Taps) > 0 && res.Branches == nil {
			res.Branches = map[string][]Path{}
		}
		for _, p := range append([]Point{nets[i].A, nets[i].B}, nets[i].Taps...) {
			if g.In(p) && !g.Blocked(p) {
				g.Block(p)
			}
		}
	}
	// Put st back from a local: putState(r.st) would move g to the
	// heap, as escape analysis does not tell r's fields apart.
	st := getState(g.W, g.H)
	defer putState(st)
	r := &router{g: g, nets: nets, alg: opts.Alg, res: res, st: st}
	var failed []int
	for _, ni := range order {
		if !r.route(ni) {
			failed = append(failed, ni)
		}
	}
	if len(failed) > 0 && opts.RipupRounds > 0 {
		failed = r.ripupRounds(failed, opts)
	}
	for _, ni := range failed {
		res.Failed = append(res.Failed, nets[ni].Name)
	}
	sort.Strings(res.Failed)
	for _, p := range res.Paths {
		res.Length += p.Wirelength()
		res.Vias += p.Vias()
	}
	for _, bs := range res.Branches {
		for _, p := range bs {
			res.Length += p.Wirelength()
			res.Vias += p.Vias()
		}
	}
	return res
}

// halfPerimeter is the half-perimeter of the bounding box of n's pins.
func halfPerimeter(n Net) int {
	x0, x1 := min(n.A.X, n.B.X), max(n.A.X, n.B.X)
	y0, y1 := min(n.A.Y, n.B.Y), max(n.A.Y, n.B.Y)
	for _, p := range n.Taps {
		x0, x1 = min(x0, p.X), max(x1, p.X)
		y0, y1 = min(y0, p.Y), max(y1, p.Y)
	}
	return x1 - x0 + y1 - y0
}

func manhattan(a, b Point) int {
	return max(a.X-b.X, b.X-a.X) + max(a.Y-b.Y, b.Y-a.Y)
}

// tree is one net's routed wires: the trunk from A to B and one branch
// per tap, in join order.
type tree struct {
	trunk    Path
	branches []Path
}

// router is RouteAll's state: the grid, the nets, the result so far,
// one search scratch, and the owner array, which is nil until the
// rip-up phase (see ripupRounds).
type router struct {
	g     *Grid
	nets  []Net
	alg   Algorithm
	res   *Result
	st    *searchState
	owner []int32
}

// grow searches net ni's tree on the current grid: the trunk from A
// to B, then a branch to each tap in order of Manhattan distance from
// A (ties in Taps order), each from every cell of the tree so far. It
// leaves the grid alone: tree cells are sources at cost 0, so no
// later branch can run through them. With owner set it is the rip-up
// phase's victim search (see routeNetState). It reports false if any
// pin cannot join.
func (r *router) grow(ni int, owner []int32) (tree, bool) {
	n := &r.nets[ni]
	r.st.src = append(r.st.src[:0], n.A)
	trunk, _, exp, err := routeNetState(r.g, n.Name, r.st.src, n.B, r.alg, r.st, owner)
	r.res.Expanded += exp
	if err != nil {
		return tree{}, false
	}
	t := tree{trunk: trunk}
	if len(n.Taps) == 0 {
		return t, true
	}
	taps := slices.Clone(n.Taps)
	slices.SortStableFunc(taps, func(p, q Point) int { return manhattan(n.A, p) - manhattan(n.A, q) })
	r.st.src = append(r.st.src[:0], trunk...)
	for _, tap := range taps {
		b, _, exp, err := routeNetState(r.g, n.Name, r.st.src, tap, r.alg, r.st, owner)
		r.res.Expanded += exp
		if err != nil {
			return tree{}, false
		}
		t.branches = append(t.branches, b)
		r.st.src = append(r.st.src, b[1:]...) // b[0] is already a source
	}
	return t, true
}

// route grows net ni's tree and places it; it reports whether the net
// routed.
func (r *router) route(ni int) bool {
	t, ok := r.grow(ni, nil)
	if ok {
		r.place(ni, t)
	}
	return ok
}

// place records t as net ni's routing and blocks its cells.
func (r *router) place(ni int, t tree) {
	name := r.nets[ni].Name
	r.res.Paths[name] = t.trunk
	if t.branches != nil {
		r.res.Branches[name] = t.branches
	}
	r.claim(ni, t.trunk)
	for _, b := range t.branches {
		r.claim(ni, b)
	}
}

// rip removes net ni's tree from the result and frees its wire cells;
// pins stay blocked. It returns the tree (empty for an unrouted net,
// which it leaves alone).
func (r *router) rip(ni int) tree {
	name := r.nets[ni].Name
	t := tree{trunk: r.res.Paths[name], branches: r.res.Branches[name]}
	delete(r.res.Paths, name)
	delete(r.res.Branches, name)
	r.free(t.trunk)
	for _, b := range t.branches {
		r.free(b)
	}
	return t
}

// wire is a path's interior: the cells its net owns. A path's ends are
// pins or, for a branch's first cell, a cell of the tree it joins.
func wire(p Path) Path {
	if len(p) < 2 {
		return nil
	}
	return p[1 : len(p)-1]
}

func (r *router) flat(p Point) int { return p.L*r.g.W*r.g.H + p.Y*r.g.W + p.X }

// claim blocks every cell of p and, in the rip-up phase, records net
// ni as the owner of p's wire.
func (r *router) claim(ni int, p Path) {
	for _, pt := range p {
		r.g.Block(pt)
	}
	if r.owner != nil {
		for _, pt := range wire(p) {
			r.owner[r.flat(pt)] = int32(ni)
		}
	}
}

// free unblocks p's wire and clears its owner.
func (r *router) free(p Path) {
	for _, pt := range wire(p) {
		r.g.Unblock(pt)
		r.owner[r.flat(pt)] = -1
	}
}

// owners appends to victims each net that owns a cell of p and is not
// listed yet.
func (r *router) owners(victims []int, p Path) []int {
	for _, pt := range p {
		if v := int(r.owner[r.flat(pt)]); v >= 0 && !slices.Contains(victims, v) {
			victims = append(victims, v)
		}
	}
	return victims
}

// ripupPenalty is what the victim search charges, on top of the step
// cost, for entering a cell of another net's wire. Lower values rip
// more nets per attempt; higher ones send the search on long detours
// around wires it could have ripped.
const ripupPenalty = 20

// ripupRounds is RouteAll's second phase. For each failed net it grows
// one penalized tree (grow with the owner array) that may cross other
// nets' wires at ripupPenalty per cell but never an obstacle or a
// foreign pin. It rips up exactly the nets whose wires that tree
// crosses, routes the failed net, then reroutes the victims in
// seeded-shuffle order. The attempt is kept if the routed count does
// not drop; otherwise every tree it routed is ripped and the victims'
// old trees are restored. Ripping a net frees only its wire cells:
// pins stay blocked for the whole run. Returns the nets still failed,
// in the order the last round met them.
func (r *router) ripupRounds(failed []int, opts Opts) []int {
	rng := rand.New(rand.NewSource(opts.Seed))
	r.owner = make([]int32, Layers*r.g.W*r.g.H)
	for i := range r.owner {
		r.owner[i] = -1
	}
	for ni, n := range r.nets {
		if p, ok := r.res.Paths[n.Name]; ok {
			r.place(ni, tree{trunk: p, branches: r.res.Branches[n.Name]})
		}
	}
	var victims, redo []int
	var saved []tree
	for round := 0; round < opts.RipupRounds && len(failed) > 0; round++ {
		var still []int
		for _, ni := range failed {
			t, ok := r.grow(ni, r.owner)
			if !ok {
				still = append(still, ni)
				continue
			}
			victims = r.owners(victims[:0], t.trunk)
			for _, b := range t.branches {
				victims = r.owners(victims, b)
			}
			before := len(r.res.Paths)
			saved = saved[:0]
			for _, v := range victims {
				saved = append(saved, r.rip(v))
			}
			redo = append(redo[:0], victims...)
			rng.Shuffle(len(redo), func(i, j int) { redo[i], redo[j] = redo[j], redo[i] })
			ok = r.route(ni)
			var reFailed []int
			for _, v := range redo {
				if !r.route(v) {
					reFailed = append(reFailed, v)
				}
			}
			if ok && len(r.res.Paths) >= before {
				still = append(still, reFailed...)
				continue
			}
			// Revert: rip everything this attempt routed (rip leaves
			// an unrouted net alone), then restore the old trees.
			r.rip(ni)
			for _, v := range victims {
				r.rip(v)
			}
			for i, v := range victims {
				r.place(v, saved[i])
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
