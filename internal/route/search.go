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

const inf = int(^uint(0) >> 1)

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
	epoch uint32
	heap  []pqItem
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
		st.epoch = 0
		return
	}
	st.dist = st.dist[:cap(st.dist)]
	st.prev = st.prev[:cap(st.prev)]
	st.seen = st.seen[:cap(st.seen)]
	st.fin = st.fin[:cap(st.fin)]
}

// begin opens a fresh search: O(1) except once every 2^32 searches,
// when the epoch counter wraps and the stamps must be cleared.
func (st *searchState) begin() {
	st.epoch++
	if st.epoch == 0 {
		for i := range st.seen {
			st.seen[i] = 0
			st.fin[i] = 0
		}
		st.epoch = 1
	}
	st.heap = st.heap[:0]
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

// routeNetState is RouteNet on caller-provided scratch. The expansion order, tie-breaking and results are identical
// to the original container/heap implementation.
//
// A non-nil owner turns it into the rip-up phase's victim search: a
// blocked cell that owner maps to a net (a wire cell) is passable at
// ripupPenalty on top of the step cost, while obstacles and other
// nets' pins stay impassable. The penalty only raises step costs, so
// the Manhattan heuristic stays admissible.
func routeNetState(g *Grid, net Net, alg Algorithm, st *searchState, owner []int32) (Path, int, int, error) {
	if !g.In(net.A) || !g.In(net.B) {
		return nil, 0, 0, fmt.Errorf("route: net %s pin off grid", net.Name)
	}
	st.resize(g.W, g.H)
	st.begin()
	w, h := g.W, g.H
	plane := w * h
	flat := func(p Point) int32 { return int32(p.L*plane + p.Y*w + p.X) }
	aIdx, bIdx := flat(net.A), flat(net.B)
	b0, b1 := g.blocked[0], g.blocked[1]
	// enter is the extra cost of stepping onto idx, or -1 if idx is
	// impassable. A net's own pins are usable even when blocked.
	enter := func(idx int32) int {
		if idx == aIdx || idx == bIdx {
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
	bx, by := net.B.X, net.B.Y
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
	st.seen[aIdx] = epoch
	st.dist[aIdx] = 0
	st.hpush(pqItem{idx: aIdx, cost: 0, prio: heur(net.A.X, net.A.Y)})

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

	expanded := 0
	for len(st.heap) > 0 {
		it := st.hpop()
		if st.fin[it.idx] == epoch {
			continue
		}
		st.fin[it.idx] = epoch
		expanded++
		if it.idx == bIdx {
			// Backtrace through the predecessor indices.
			n := 1
			for q := bIdx; q != aIdx; q = st.prev[q] {
				n++
			}
			path := make(Path, n)
			q := bIdx
			for i := n - 1; ; i-- {
				yx := int(q) % plane
				path[i] = Point{X: yx % w, Y: yx / w, L: int(q) / plane}
				if q == aIdx {
					break
				}
				q = st.prev[q]
			}
			return path, it.cost, expanded, nil
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
	return nil, 0, expanded, fmt.Errorf("route: net %s unroutable", net.Name)
}
