package place

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"vlsicad/internal/linsolve"
)

// Quadratic placement (Project 3): minimize clique-model squared
// wirelength by solving two sparse SPD systems (one for x, one for y),
// then legalize by recursive bipartition — sort on the solved
// coordinate, split the cells, split the region, propagate external
// connections onto region boundaries as pseudo-pads, and recurse
// (the PROUD "sea of gates" strategy the course project followed).
//
// The bipartition tree is processed level-synchronously, each level in
// two half-steps: first every left child solves its clique system
// against a placement snapshot taken after the previous level, then
// the snapshot is refreshed and every right child solves against it —
// so a right sibling anchors on its left sibling's fresh solution,
// exactly as the depth-first order did one level deep. Regions within
// a half-step partition disjoint cell sets and read only the snapshot,
// so they are independent: any number of workers in any order yields a
// byte-identical placement (DESIGN.md §12). Each solve runs on the frozen CSR
// kernels of internal/linsolve with the x- and y-systems fused into
// one dual-RHS CG sweep, over pooled epoch-stamped scratch, so a full
// placement performs O(levels) allocations rather than O(regions·CG
// iterations).

// QuadraticOpts tunes the placer.
type QuadraticOpts struct {
	// Workers bounds how many regions of one bipartition level solve
	// concurrently: 0 means GOMAXPROCS, 1 forces serial execution. The
	// placement is byte-identical for every value — parallelism changes
	// only wall clock, never the answer (the route/anneal contract).
	Workers int

	// OnLevel, when non-nil, receives per-level statistics after each
	// bipartition level completes, in level order on the calling
	// goroutine. The stats hold work counts only and are deterministic
	// for any Workers value; callers time levels on their own clock.
	OnLevel func(QuadLevelStats)
}

// quadTol is the CG tolerance of every region solve.
const quadTol = 1e-8

// quadLeafCells is the cell count at or below which a region stops
// splitting and is spread.
const quadLeafCells = 3

// QuadLevelStats reports one bipartition level of a quadratic
// placement run.
type QuadLevelStats struct {
	Level        int // depth: 0 is the full-chip solve
	Regions      int // regions solved at this level
	Leaves       int // regions that finished (spread) at this level
	Cells        int // movable cells across the level's regions
	CGIterations int // summed x+y CG iterations across the level
}

// Quadratic runs global quadratic placement with recursive
// bipartition and returns the (continuous) placement.
func Quadratic(p *Problem, opts QuadraticOpts) (*Placement, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// A region stops splitting at twice the depth that would reach
	// single cells.
	maxDepth := 2 * int(math.Ceil(math.Log2(float64(p.NCells+1))))
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pl := NewPlacement(p.NCells)
	if p.NCells == 0 {
		return pl, nil
	}

	// order holds every movable cell; each region owns one contiguous
	// segment and splitting is an in-place sort of that segment, so the
	// whole tree shares a single backing array.
	order := make([]int, p.NCells)
	for i := range order {
		order[i] = i
	}
	snapX := make([]float64, p.NCells)
	snapY := make([]float64, p.NCells)

	cur := []quadTask{{lo: 0, hi: p.NCells, region: rect{0, 0, p.W, p.H}}}
	var batch []int
	for level := 0; len(cur) > 0; level++ {
		next := make([]quadTask, 2*len(cur))
		errs := make([]error, len(cur))
		iters := make([]int, len(cur))
		process := func(ti int, sc *quadScratch) {
			t := cur[ti]
			cells := order[t.lo:t.hi]
			it, err := sc.solve(p, pl, cells, t.region, quadTol, snapX, snapY)
			iters[ti] = it
			if err != nil {
				errs[ti] = err
				return
			}
			if len(cells) <= quadLeafCells || t.depth >= maxDepth {
				spreadInRegion(pl, cells, t.region)
				return
			}
			next[2*ti], next[2*ti+1] = t.split(pl, cells)
		}
		runBatch := func(batch []int) {
			if w := min(workers, len(batch)); w <= 1 {
				sc := acquireQuadScratch(p.NCells)
				for _, ti := range batch {
					process(ti, sc)
				}
				quadScratchPool.Put(sc)
			} else {
				var nextIdx int32 = -1
				var wg sync.WaitGroup
				for i := 0; i < w; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						sc := acquireQuadScratch(p.NCells)
						defer quadScratchPool.Put(sc)
						for {
							bi := int(atomic.AddInt32(&nextIdx, 1))
							if bi >= len(batch) {
								return
							}
							process(batch[bi], sc)
						}
					}()
				}
				wg.Wait()
			}
		}
		// Two half-steps: left children against the end-of-previous-level
		// snapshot, then right children against a refreshed snapshot that
		// includes their left siblings' solutions (the depth-first
		// anchoring order, one level deep).
		for side := uint8(0); side <= 1; side++ {
			batch = batch[:0]
			for ti, t := range cur {
				if t.side == side {
					batch = append(batch, ti)
				}
			}
			if len(batch) == 0 {
				continue
			}
			copy(snapX, pl.X)
			copy(snapY, pl.Y)
			runBatch(batch)
		}
		// First error in region order, so failures are deterministic
		// too.
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		if opts.OnLevel != nil {
			st := QuadLevelStats{Level: level, Regions: len(cur)}
			for _, t := range cur {
				st.Cells += t.hi - t.lo
			}
			for _, it := range iters {
				st.CGIterations += it
			}
			children := 0
			for _, t := range next {
				if t.hi > t.lo {
					children++
				}
			}
			st.Leaves = len(cur) - children/2 // split parents emit two children
			opts.OnLevel(st)
		}
		// Compact the next level, preserving region order.
		nn := next[:0]
		for _, t := range next {
			if t.hi > t.lo {
				nn = append(nn, t)
			}
		}
		cur = nn
	}
	return pl, nil
}

// quadTask is one region of the bipartition tree: the cells
// order[lo:hi] inside region at the given depth. side records whether
// the region is a left (0) or right (1) child of its parent, which
// picks the half-step it solves in; the root counts as left.
type quadTask struct {
	lo, hi int
	region rect
	depth  int
	side   uint8
}

// split sorts the region's cell segment on the solved coordinate of
// the long dimension (ties to the lower cell index, so the order is a
// pure function of the placement) and cuts region and segment in half.
func (t quadTask) split(pl *Placement, cells []int) (low, high quadTask) {
	region := t.region
	vertical := region.w() >= region.h()
	if vertical {
		slices.SortFunc(cells, func(a, b int) int {
			if pl.X[a] != pl.X[b] {
				return cmp.Compare(pl.X[a], pl.X[b])
			}
			return cmp.Compare(a, b)
		})
	} else {
		slices.SortFunc(cells, func(a, b int) int {
			if pl.Y[a] != pl.Y[b] {
				return cmp.Compare(pl.Y[a], pl.Y[b])
			}
			return cmp.Compare(a, b)
		})
	}
	half := (len(cells) + 1) / 2
	var lowR, highR rect
	if vertical {
		mid := region.x0 + region.w()*float64(half)/float64(len(cells))
		lowR = rect{region.x0, region.y0, mid, region.y1}
		highR = rect{mid, region.y0, region.x1, region.y1}
	} else {
		mid := region.y0 + region.h()*float64(half)/float64(len(cells))
		lowR = rect{region.x0, region.y0, region.x1, mid}
		highR = rect{region.x0, mid, region.x1, region.y1}
	}
	low = quadTask{lo: t.lo, hi: t.lo + half, region: lowR, depth: t.depth + 1, side: 0}
	high = quadTask{lo: t.lo + half, hi: t.hi, region: highR, depth: t.depth + 1, side: 1}
	return low, high
}

type rect struct{ x0, y0, x1, y1 float64 }

func (r rect) cx() float64 { return (r.x0 + r.x1) / 2 }
func (r rect) cy() float64 { return (r.y0 + r.y1) / 2 }
func (r rect) w() float64  { return r.x1 - r.x0 }
func (r rect) h() float64  { return r.y1 - r.y0 }

// clampToRegion projects a point onto the region boundary box.
func (r rect) clamp(x, y float64) (float64, float64) {
	return math.Max(r.x0, math.Min(r.x1, x)), math.Max(r.y0, math.Min(r.y1, y))
}

// quadPin is one clique pin: a movable cell (cell >= 0) at its
// snapshot position, or a fixed pad (cell == -1).
type quadPin struct {
	cell int32
	x, y float64
}

// quadScratch is one solver's recyclable working state: the reused
// sparse builder, right-hand sides, solution vectors, the
// epoch-stamped cell→local-index map, and the pin accumulator. A
// sync.Pool recycles it across regions, levels and runs, so region
// solves allocate nothing once warm (the anneal/route scratch
// pattern).
type quadScratch struct {
	a      *linsolve.Sparse
	bx, by []float64
	xs, ys []float64
	pins   []quadPin

	// idxOf[c] is cell c's index within the region being solved, valid
	// only when idxMark[c] holds the current epoch — an O(1)-reset map
	// over the full cell universe.
	idxOf   []int32
	idxMark []uint32
	epoch   uint32
}

var quadScratchPool = sync.Pool{New: func() any { return new(quadScratch) }}

func acquireQuadScratch(nCells int) *quadScratch {
	sc := quadScratchPool.Get().(*quadScratch)
	if sc.a == nil {
		sc.a = linsolve.NewSparse(0)
	}
	if cap(sc.idxMark) < nCells {
		sc.idxMark = make([]uint32, nCells)
		sc.idxOf = make([]int32, nCells)
		sc.epoch = 0
	} else {
		sc.idxMark = sc.idxMark[:nCells]
		sc.idxOf = sc.idxOf[:nCells]
	}
	return sc
}

// nextEpoch advances the scratch epoch, clearing the mark array only
// on uint32 wraparound.
func (sc *quadScratch) nextEpoch() uint32 {
	sc.epoch++
	if sc.epoch == 0 {
		for i := range sc.idxMark {
			sc.idxMark[i] = 0
		}
		sc.epoch = 1
	}
	return sc.epoch
}

// lookup resolves a pin's cell to its local index in the current
// region (comma-ok, like the map it replaces).
func (sc *quadScratch) lookup(cell int32) (int, bool) {
	if cell < 0 || sc.idxMark[cell] != sc.epoch {
		return -1, false
	}
	return int(sc.idxOf[cell]), true
}

func growQF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// solve builds and solves the clique-model quadratic program for the
// cell subset. Connections to cells outside the subset anchor at the
// snapshot coordinates (snapX/snapY) clamped onto the region; pads
// anchor at their fixed positions. The solved positions are written to
// pl for exactly the subset's cells. snapX/snapY may alias pl.X/pl.Y
// (the single-region case): all snapshot reads happen before any
// write. Returns the summed x+y CG iteration count.
func (sc *quadScratch) solve(p *Problem, pl *Placement, cells []int, region rect, tol float64, snapX, snapY []float64) (int, error) {
	n := len(cells)
	epoch := sc.nextEpoch()
	for i, c := range cells {
		sc.idxOf[c] = int32(i)
		sc.idxMark[c] = epoch
	}
	sc.a.Reset(n)
	sc.bx = growQF(sc.bx, n)
	sc.by = growQF(sc.by, n)
	sc.xs = growQF(sc.xs, n)
	sc.ys = growQF(sc.ys, n)
	a, bx, by := sc.a, sc.bx, sc.by
	for i := 0; i < n; i++ {
		bx[i], by[i] = 0, 0
	}

	addPair := func(ci int, otherIn bool, oj int, fx, fy, w float64) {
		a.Add(ci, ci, w)
		if otherIn {
			a.Add(ci, oj, -w)
		} else {
			cx, cy := region.clamp(fx, fy)
			bx[ci] += w * cx
			by[ci] += w * cy
		}
	}

	for ni := range p.Nets {
		net := &p.Nets[ni]
		k := len(net.Cells) + len(net.Pads)
		if k < 2 {
			continue
		}
		w := net.weight() * cliqueWeight(k)
		// All pin pairs in the clique.
		pins := sc.pins[:0]
		for _, c := range net.Cells {
			pins = append(pins, quadPin{cell: int32(c), x: snapX[c], y: snapY[c]})
		}
		for _, pd := range net.Pads {
			pins = append(pins, quadPin{cell: -1, x: p.Pads[pd].X, y: p.Pads[pd].Y})
		}
		sc.pins = pins
		for i := 0; i < len(pins); i++ {
			pi := pins[i]
			ii, inI := sc.lookup(pi.cell)
			for j := i + 1; j < len(pins); j++ {
				pj := pins[j]
				jj, inJ := sc.lookup(pj.cell)
				switch {
				case inI && inJ:
					addPair(ii, true, jj, 0, 0, w)
					addPair(jj, true, ii, 0, 0, w)
				case inI && !inJ:
					addPair(ii, false, 0, pj.x, pj.y, w)
				case !inI && inJ:
					addPair(jj, false, 0, pi.x, pi.y, w)
				}
			}
		}
	}
	// Cells with no connectivity sit at the region center.
	for i := 0; i < n; i++ {
		if a.At(i, i) == 0 {
			a.Add(i, i, 1)
			bx[i] = region.cx()
			by[i] = region.cy()
		}
	}
	resX, resY := linsolve.CG2Into(sc.xs, sc.ys, a, bx, by, tol, 10000)
	if !resX.Converged || !resY.Converged {
		return resX.Iterations + resY.Iterations,
			fmt.Errorf("place: CG did not converge (res %g / %g)", resX.Residual, resY.Residual)
	}
	for i, c := range cells {
		pl.X[c], pl.Y[c] = region.clamp(sc.xs[i], sc.ys[i])
	}
	return resX.Iterations + resY.Iterations, nil
}

// spreadInRegion distributes the cells of a leaf region on a uniform
// grid, preserving the solved relative order (rows bottom-up by y,
// cells within a row left-to-right by x; all ties break to the lower
// cell index, so the layout is a pure function of the solved
// placement). Sorts the cells slice in place.
func spreadInRegion(pl *Placement, cells []int, region rect) {
	k := len(cells)
	if k == 0 {
		return
	}
	cols := int(math.Ceil(math.Sqrt(float64(k) * region.w() / math.Max(region.h(), 1e-9))))
	if cols < 1 {
		cols = 1
	}
	rows := (k + cols - 1) / cols
	slices.SortFunc(cells, func(a, b int) int {
		if pl.Y[a] != pl.Y[b] {
			return cmp.Compare(pl.Y[a], pl.Y[b])
		}
		if pl.X[a] != pl.X[b] {
			return cmp.Compare(pl.X[a], pl.X[b])
		}
		return cmp.Compare(a, b)
	})
	i := 0
	for r := 0; r < rows && i < k; r++ {
		// Cells in this row, ordered by x.
		rowEnd := i + cols
		if rowEnd > k {
			rowEnd = k
		}
		rowCells := cells[i:rowEnd]
		slices.SortFunc(rowCells, func(a, b int) int {
			if pl.X[a] != pl.X[b] {
				return cmp.Compare(pl.X[a], pl.X[b])
			}
			return cmp.Compare(a, b)
		})
		for c, cell := range rowCells {
			pl.X[cell] = region.x0 + (float64(c)+0.5)*region.w()/float64(len(rowCells))
			pl.Y[cell] = region.y0 + (float64(r)+0.5)*region.h()/float64(rows)
		}
		i = rowEnd
	}
}
