package route

import (
	"fmt"
	"sync"
)

// Pooled maze-search scratch. RouteNet used to allocate three
// layer-sized arrays plus one boxed heap entry per frontier push on
// every call; at flow scale (hundreds of nets, thousands of rip-up
// retries) that allocation storm dominated the routing stage. The
// scratch here is flat index-addressed, epoch-stamped (so reuse needs
// no clearing), and recycled through a sync.Pool, so steady-state
// routing allocates almost nothing per net beyond the returned Path.

// pqItem is one frontier entry: a flat cell index plus g-cost and
// heap priority (g + heuristic).
type pqItem struct {
	idx  int32
	cost int
	prio int
}

// searchState is the scratch of one maze expansion. All
// per-cell arrays are indexed by flat cell index
// l*(W*H) + y*W + x and validated against epoch, so starting a new
// search is O(1): bump the epoch.
type searchState struct {
	w, h  int
	cells int // Layers * w * h currently in use
	dist  []int
	prev  []int32
	seen  []uint32 // dist/prev valid iff seen[i] == epoch
	fin   []uint32 // vertex finalized iff fin[i] == epoch
	side  []uint32 // reached by the target's flood iff side[i] == epoch
	epoch uint32
	heap  []pqItem
	sq    []int32 // the target's flood queue, FIFO
	src   []Point // RouteAll's buffer for the sources of its next search
}

var statePool = sync.Pool{New: func() interface{} { return &searchState{} }}

// getState fetches scratch sized for a w×h grid from the pool.
func getState(w, h int) *searchState {
	st := statePool.Get().(*searchState)
	st.resize(w, h)
	return st
}

func putState(st *searchState) { statePool.Put(st) }

func (st *searchState) resize(w, h int) {
	need := Layers * w * h
	st.w, st.h = w, h
	st.cells = need
	if cap(st.dist) < need {
		st.dist = make([]int, need)
		st.prev = make([]int32, need)
		st.seen = make([]uint32, need)
		st.fin = make([]uint32, need)
		st.side = make([]uint32, need)
		st.epoch = 0
		return
	}
	st.dist = st.dist[:cap(st.dist)]
	st.prev = st.prev[:cap(st.prev)]
	st.seen = st.seen[:cap(st.seen)]
	st.fin = st.fin[:cap(st.fin)]
	st.side = st.side[:cap(st.side)]
}

// begin opens a fresh search: O(1) except once every 2^32 searches,
// when the epoch counter wraps and the stamps must be cleared.
func (st *searchState) begin() {
	st.epoch++
	if st.epoch == 0 {
		for i := range st.seen {
			st.seen[i] = 0
			st.fin[i] = 0
			st.side[i] = 0
		}
		st.epoch = 1
	}
	st.heap = st.heap[:0]
	st.sq = st.sq[:0]
}

// The heap replicates container/heap's sift order exactly (so routes
// are tie-broken identically to the pre-pool router) without the
// per-push interface boxing that made heap.Push allocate.

func (st *searchState) hpush(it pqItem) {
	st.heap = append(st.heap, it)
	j := len(st.heap) - 1
	h := st.heap
	for {
		i := (j - 1) / 2
		if i == j || h[j].prio >= h[i].prio {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (st *searchState) hpop() pqItem {
	h := st.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	// Sift down over h[:n].
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].prio < h[j1].prio {
			j = j2
		}
		if h[j].prio >= h[i].prio {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	st.heap = h[:n]
	return it
}

// routeNetState is the maze search of RouteNet and RouteAll on
// caller-provided scratch: a minimum-cost path from any cell of from
// (the sources) to the pin to, for net name. Every source is seeded
// at cost 0 with its heuristic as priority, and the backtrace stops at
// the first source it meets. With the one source A and target B it is
// the two-pin search: expansion order, tie-breaking and results are
// identical to the original container/heap implementation.
//
// The target is usable even when blocked (pins are reserved); sources
// need no entry, as nothing undercuts cost 0. A non-nil owner turns
// it into the rip-up phase's victim search: a blocked cell that owner
// maps to a net (a wire cell) is passable at ripupPenalty on top of
// the step cost, while obstacles and other pins stay impassable. The
// penalty only raises step costs, so the Manhattan heuristic stays
// admissible.
//
// The plain search (nil owner) stops early when no source can reach
// the target. Beside the A* wavefront it floods breadth-first out from
// the target over the cells the search may enter, one flood pop per A*
// expansion. The flood stops as soon as it meets a cell A* has seen
// (the regions touch, so A* will reach the target), and the search
// gives up as soon as the flood's queue runs out first: the target's
// region then holds no source and touches none. The flood never
// touches A*'s heap, distances or predecessors, so every path found
// and every give-up is the same as a search run to exhaustion; only
// the work differs. The victim search does not flood: it may cross
// wires, so only obstacles and pins bound its target's region, and
// that region is almost never closed.
//
// The returned count is the work done: A* expansions plus flood pops.
func routeNetState(g *Grid, name string, from []Point, to Point, alg Algorithm, st *searchState, owner []int32) (Path, int, int, error) {
	if !g.In(to) {
		return nil, 0, 0, fmt.Errorf("route: net %s pin off grid", name)
	}
	for _, p := range from {
		if !g.In(p) {
			return nil, 0, 0, fmt.Errorf("route: net %s pin off grid", name)
		}
	}
	st.resize(g.W, g.H)
	st.begin()
	w, h := g.W, g.H
	plane := w * h
	flat := func(p Point) int32 { return int32(p.L*plane + p.Y*w + p.X) }
	toIdx := flat(to)
	b0, b1 := g.blocked[0], g.blocked[1]
	// enter is the extra cost of stepping onto idx, or -1 if idx is
	// impassable.
	enter := func(idx int32) int {
		if idx == toIdx {
			return 0
		}
		var blocked bool
		if int(idx) < plane {
			blocked = b0[idx]
		} else {
			blocked = b1[int(idx)-plane]
		}
		switch {
		case !blocked:
			return 0
		case owner != nil && owner[idx] >= 0:
			return ripupPenalty
		}
		return -1
	}
	unit, nonPref, via := g.Cost.Unit, g.Cost.NonPref, g.Cost.Via
	bx, by := to.X, to.Y
	heur := func(x, y int) int {
		if alg != AStar {
			return 0
		}
		dx, dy := x-bx, y-by
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return unit * (dx + dy)
	}

	epoch := st.epoch
	for _, p := range from {
		if i := flat(p); st.seen[i] != epoch {
			st.seen[i] = epoch
			st.dist[i] = 0
			st.prev[i] = -1
			st.hpush(pqItem{idx: i, cost: 0, prio: heur(p.X, p.Y)})
		}
	}

	// relax offers q the cost of one step from `from`, unless q is
	// finalized or impassable.
	relax := func(q int32, from int32, step, qx, qy int) {
		if st.fin[q] == epoch {
			return
		}
		c := enter(q)
		if c < 0 {
			return
		}
		nd := step + c
		if st.seen[q] != epoch {
			st.seen[q] = epoch
			st.dist[q] = nd
			st.prev[q] = from
			st.hpush(pqItem{idx: q, cost: nd, prio: nd + heur(qx, qy)})
		} else if nd < st.dist[q] {
			st.dist[q] = nd
			st.prev[q] = from
			st.hpush(pqItem{idx: q, cost: nd, prio: nd + heur(qx, qy)})
		}
	}

	// meet reports whether A* has seen q, which joins the target's
	// region to a source's; otherwise it adds q to the flood if the
	// search may enter it.
	meet := func(q int32) bool {
		if st.seen[q] == epoch {
			return true
		}
		if st.side[q] != epoch && enter(q) >= 0 {
			st.side[q] = epoch
			st.sq = append(st.sq, q)
		}
		return false
	}
	flooding := owner == nil && st.seen[toIdx] != epoch
	if flooding {
		st.side[toIdx] = epoch
		st.sq = append(st.sq, toIdx)
	}
	head := 0

	expanded := 0
	for len(st.heap) > 0 {
		it := st.hpop()
		if st.fin[it.idx] == epoch {
			continue
		}
		st.fin[it.idx] = epoch
		expanded++
		if it.idx == toIdx {
			// Backtrace through the predecessor indices to a source.
			n := 1
			for q := toIdx; st.prev[q] >= 0; q = st.prev[q] {
				n++
			}
			path := make(Path, n)
			q := toIdx
			for i := n - 1; i >= 0; i-- {
				yx := int(q) % plane
				path[i] = Point{X: yx % w, Y: yx / w, L: int(q) / plane}
				q = st.prev[q]
			}
			return path, it.cost, expanded, nil
		}
		if flooding {
			q := st.sq[head]
			head++
			expanded++
			l := int(q) / plane
			yx := int(q) % plane
			y, x := yx/w, yx%w
			joined := x+1 < w && meet(q+1) ||
				x > 0 && meet(q-1) ||
				y+1 < h && meet(q+int32(w)) ||
				y > 0 && meet(q-int32(w)) ||
				l == 0 && meet(q+int32(plane)) ||
				l == 1 && meet(q-int32(plane))
			if joined {
				flooding = false
			} else if head == len(st.sq) {
				break
			}
		}
		l := int(it.idx) / plane
		yx := int(it.idx) % plane
		y, x := yx/w, yx%w
		// Step costs by direction on this layer (layer 0 prefers
		// horizontal, layer 1 vertical), matching Grid.StepCost.
		hCost, vCost := unit, unit
		if l == 0 {
			vCost += nonPref
		} else {
			hCost += nonPref
		}
		// Neighbor order matches the original router: +x, -x, +y,
		// -y, via — expansion order decides cost ties.
		if x+1 < w {
			relax(it.idx+1, it.idx, it.cost+hCost, x+1, y)
		}
		if x > 0 {
			relax(it.idx-1, it.idx, it.cost+hCost, x-1, y)
		}
		if y+1 < h {
			relax(it.idx+int32(w), it.idx, it.cost+vCost, x, y+1)
		}
		if y > 0 {
			relax(it.idx-int32(w), it.idx, it.cost+vCost, x, y-1)
		}
		if l == 0 {
			relax(it.idx+int32(plane), it.idx, it.cost+via, x, y)
		} else {
			relax(it.idx-int32(plane), it.idx, it.cost+via, x, y)
		}
	}
	return nil, 0, expanded, fmt.Errorf("route: net %s unroutable", name)
}
