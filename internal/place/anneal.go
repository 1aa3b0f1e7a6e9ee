package place

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Simulated-annealing placement — the other Week-6 algorithm and the
// baseline the quadratic placer is compared against in the course's
// extra-credit benchmarks. Cells live on a WxH grid of unit slots;
// moves swap two cells or move a cell to a free slot, accepted by the
// Metropolis criterion under a geometric cooling schedule.
//
// The schedule is VPR's. Each chain keeps a window radius rlim that
// starts at the whole grid; after every temperature step it scales by
// (1 − 0.44 + acceptance ratio of the step), clamped to [1, grid], so
// moves stay local once most long moves would be rejected. A move's
// target is drawn uniformly inside the window around the moved cell,
// clipped to the grid, and is never the cell's own slot (VPR redraws
// it). The run ends at a cost-relative temperature: once T falls
// below 0.005 · cost / nets, uphill moves are all but always rejected.
// A random start begins hot (20× the mean |ΔHPWL| of probe moves) to
// randomise it; a given start (Initial) begins at 1× so the anneal
// refines the start instead of discarding it.
//
// The engine evaluates moves incrementally: each net carries a cached
// bounding box and HPWL, and a move touches only the nets of the moved
// cell(s). A moved pin strictly inside its net's box just expands the
// box; a pin that sat on the box boundary forces an exact rescan of
// that net (the box may shrink, and counting boundary pins costs more
// than rescanning a 2-5 pin net). All per-move state lives in pooled,
// epoch-stamped flat arrays, so a full run performs O(chains)
// allocations rather than O(moves) (EXPERIMENTS.md: 856K → <100
// allocs on the bench instance).
//
// Parallel mode runs Chains independent seeded chains (chain i's RNG
// seed is SplitMix64-derived from Seed and i) and merges them with a
// fixed rule — lowest final HPWL, ties to the lowest chain index. The
// chain count, not the worker count, determines every chain's move
// stream, so the result is byte-identical for any Workers/GOMAXPROCS;
// Workers only bounds how many chains anneal concurrently (DESIGN.md
// §10).

// AnnealOpts tunes the annealer.
type AnnealOpts struct {
	Seed      int64
	MovesPerT int // moves per temperature (default 10·NCells capped at 20000)
	// InitialTemp defaults to the mean |ΔHPWL| of 50 probe moves: 20×
	// it from a random start, 1× it from Initial.
	InitialTemp float64
	Cooling     float64 // geometric factor (default 0.92)
	// MinTemp, when set, stops the run once T ≤ MinTemp. The default
	// (0) stops once T < 0.005 · cost / len(Nets), checked at every
	// temperature step; a zero-cost placement stops at once.
	MinTemp float64

	// Chains is the number of independent annealing chains. The result
	// is the best chain's placement (ties to the lowest index) and is a
	// function of Chains but never of Workers. Default 1.
	Chains int
	// Workers bounds how many chains run concurrently: 0 means
	// GOMAXPROCS, 1 forces serial execution. The result is
	// byte-identical for every value.
	Workers int

	// Initial, when non-nil, seeds every chain from this legal
	// placement instead of a random permutation (the flow's
	// anneal-refinement mode). It must pass CheckLegal on the problem's
	// own W×H grid.
	Initial *Placement

	// SelfCheck verifies the incremental running cost against a full
	// HPWL recompute at every accepted move and fails the run on drift
	// beyond float tolerance — the xcheck panneal oracle's invariant.
	// Slow; testing only. It consumes no randomness, so it never
	// changes the result.
	SelfCheck bool

	// OnChain, when non-nil, receives per-chain statistics after all
	// chains finish, called in chain-index order (deterministic even
	// when chains ran concurrently).
	OnChain func(ChainStats)
}

// ChainStats reports one annealing chain's work counts (telemetry
// only; callers time chains on their own clock).
type ChainStats struct {
	Chain      int
	Moves      int
	Accepted   int
	Recomputes int // exact-rescan fallbacks (moved pin on a box boundary)
	HPWL       float64
}

// AnnealResult reports the annealing run. Moves, Accepted and
// Recomputes are summed over all chains; Placement, HPWL and
// Temperature come from the winning chain.
type AnnealResult struct {
	Placement   *Placement
	HPWL        float64
	Moves       int
	Accepted    int
	Recomputes  int
	Temperature float64 // winning chain's final temperature
	Chain       int     // winning chain index
}

// chainSeed derives chain i's RNG seed with one SplitMix64 scramble,
// so chains are decorrelated but the mapping is a pure function of
// (Seed, chain index).
func chainSeed(seed int64, chain int) int64 {
	z := uint64(seed) ^ (0x9e3779b97f4a7c15 * (uint64(chain) + 1))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// annealShared is the per-problem read-only data every chain shares:
// grid geometry, the cell→nets index in CSR form, and each net's
// fixed-pad bounding box and weight.
type annealShared struct {
	cols, rows, nSlots int

	netStart []int32 // nets of cell c: netList[netStart[c]:netStart[c+1]]
	netList  []int32

	padMinX, padMaxX []float64 // per net; +Inf/-Inf when the net has no pads
	padMinY, padMaxY []float64
	weight           []float64
}

func buildAnnealShared(p *Problem, cols, rows int) *annealShared {
	sh := &annealShared{cols: cols, rows: rows, nSlots: cols * rows}
	counts := make([]int32, p.NCells+1)
	for ni := range p.Nets {
		for _, c := range p.Nets[ni].Cells {
			counts[c+1]++
		}
	}
	sh.netStart = make([]int32, p.NCells+1)
	for c := 0; c < p.NCells; c++ {
		sh.netStart[c+1] = sh.netStart[c] + counts[c+1]
	}
	sh.netList = make([]int32, sh.netStart[p.NCells])
	fill := make([]int32, p.NCells)
	copy(fill, sh.netStart[:p.NCells])
	for ni := range p.Nets {
		for _, c := range p.Nets[ni].Cells {
			sh.netList[fill[c]] = int32(ni)
			fill[c]++
		}
	}
	n := len(p.Nets)
	sh.padMinX = make([]float64, n)
	sh.padMaxX = make([]float64, n)
	sh.padMinY = make([]float64, n)
	sh.padMaxY = make([]float64, n)
	sh.weight = make([]float64, n)
	for ni := range p.Nets {
		net := &p.Nets[ni]
		sh.weight[ni] = net.weight()
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		for _, pd := range net.Pads {
			x, y := p.Pads[pd].X, p.Pads[pd].Y
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
		sh.padMinX[ni], sh.padMaxX[ni] = minX, maxX
		sh.padMinY[ni], sh.padMaxY[ni] = minY, maxY
	}
	return sh
}

// annealScratch is one chain's recyclable working state: slot maps,
// per-net cached boxes/costs, and the epoch-stamped affected-net set.
// All slices are flat and index-addressed; Acquire grows them to the
// instance size and a sync.Pool recycles them across runs and chains.
type annealScratch struct {
	slotOf []int32
	cellAt []int32

	bbMinX, bbMaxX []float64
	bbMinY, bbMaxY []float64
	netCost        []float64

	mark                              []uint32  // net -> epoch of last touch
	who                               []uint8   // net -> mover bits this epoch (1 = a, 2 = b)
	aff                               []int32   // affected-net list of the current move
	sMinX, sMaxX, sMinY, sMaxY, sCost []float64 // saved state for undo

	epoch uint32
}

var annealScratchPool = sync.Pool{New: func() any { return new(annealScratch) }}

func acquireAnnealScratch(nCells, nSlots, nNets int) *annealScratch {
	sc := annealScratchPool.Get().(*annealScratch)
	growI32 := func(s []int32, n int) []int32 {
		if cap(s) < n {
			return make([]int32, n)
		}
		return s[:n]
	}
	growF := func(s []float64, n int) []float64 {
		if cap(s) < n {
			return make([]float64, n)
		}
		return s[:n]
	}
	sc.slotOf = growI32(sc.slotOf, nCells)
	sc.cellAt = growI32(sc.cellAt, nSlots)
	sc.bbMinX = growF(sc.bbMinX, nNets)
	sc.bbMaxX = growF(sc.bbMaxX, nNets)
	sc.bbMinY = growF(sc.bbMinY, nNets)
	sc.bbMaxY = growF(sc.bbMaxY, nNets)
	sc.netCost = growF(sc.netCost, nNets)
	if cap(sc.mark) < nNets {
		sc.mark = make([]uint32, nNets)
		sc.who = make([]uint8, nNets)
		sc.epoch = 0
	} else {
		sc.mark = sc.mark[:nNets]
		sc.who = sc.who[:nNets]
	}
	sc.aff = growI32(sc.aff, nNets)
	sc.sMinX = growF(sc.sMinX, nNets)
	sc.sMaxX = growF(sc.sMaxX, nNets)
	sc.sMinY = growF(sc.sMinY, nNets)
	sc.sMaxY = growF(sc.sMaxY, nNets)
	sc.sCost = growF(sc.sCost, nNets)
	return sc
}

// nextEpoch advances the scratch epoch, clearing the mark array only
// on uint32 wraparound.
func (sc *annealScratch) nextEpoch() uint32 {
	sc.epoch++
	if sc.epoch == 0 {
		for i := range sc.mark {
			sc.mark[i] = 0
		}
		sc.epoch = 1
	}
	return sc.epoch
}

// Anneal runs simulated annealing from a random legal placement (or
// opts.Initial) on the integer grid. Cell coordinates in the result
// are slot centers. With Chains > 1 it anneals that many independent
// chains — concurrently up to opts.Workers — and returns the best; the
// result depends only on the options, never on Workers or GOMAXPROCS.
func Anneal(p *Problem, opts AnnealOpts) (*AnnealResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cols := int(p.W)
	rows := int(p.H)
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	if cols*rows < p.NCells {
		if opts.Initial != nil {
			return nil, fmt.Errorf("place: initial placement needs %d slots, grid has %d", p.NCells, cols*rows)
		}
		cols = int(math.Ceil(math.Sqrt(float64(p.NCells))))
		rows = cols
	}
	if opts.Initial != nil {
		if len(opts.Initial.X) != p.NCells || len(opts.Initial.Y) != p.NCells {
			return nil, fmt.Errorf("place: initial placement has %d cells, problem has %d", len(opts.Initial.X), p.NCells)
		}
		if err := CheckLegal(p, opts.Initial); err != nil {
			return nil, fmt.Errorf("place: initial placement: %w", err)
		}
	}
	if p.NCells == 0 {
		pl := NewPlacement(0)
		return &AnnealResult{Placement: pl, HPWL: p.HPWL(pl)}, nil
	}

	movesPerT := opts.MovesPerT
	if movesPerT <= 0 {
		movesPerT = 10 * p.NCells
		if movesPerT > 20000 {
			movesPerT = 20000
		}
	}
	cooling := opts.Cooling
	if cooling <= 0 || cooling >= 1 {
		cooling = 0.92
	}
	chains := opts.Chains
	if chains <= 0 {
		chains = 1
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > chains {
		workers = chains
	}

	sh := buildAnnealShared(p, cols, rows)
	results := make([]chainResult, chains)
	var next int32 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt32(&next, 1))
				if i >= chains {
					return
				}
				results[i] = annealChain(p, sh, opts, movesPerT, cooling, chainSeed(opts.Seed, i))
			}
		}()
	}
	wg.Wait()

	res := &AnnealResult{}
	for i := range results {
		if results[i].err != nil {
			return nil, fmt.Errorf("place: anneal chain %d: %w", i, results[i].err)
		}
		res.Moves += results[i].moves
		res.Accepted += results[i].accepted
		res.Recomputes += results[i].recomputes
	}
	best := 0
	for i := 1; i < chains; i++ {
		if results[i].hpwl < results[best].hpwl {
			best = i
		}
	}
	res.Placement = results[best].pl
	res.HPWL = results[best].hpwl
	res.Temperature = results[best].temp
	res.Chain = best
	if opts.OnChain != nil {
		for i := range results {
			opts.OnChain(ChainStats{
				Chain:      i,
				Moves:      results[i].moves,
				Accepted:   results[i].accepted,
				Recomputes: results[i].recomputes,
				HPWL:       results[i].hpwl,
			})
		}
	}
	return res, nil
}

// chainResult is one chain's outcome; err is non-nil only when
// SelfCheck caught incremental-cost drift.
type chainResult struct {
	pl         *Placement
	hpwl       float64
	moves      int
	accepted   int
	recomputes int
	temp       float64
	err        error
}

// annealChain runs one fully independent chain: own RNG, own pooled
// scratch, own placement. It shares only the read-only annealShared.
func annealChain(p *Problem, sh *annealShared, opts AnnealOpts, movesPerT int, cooling float64, seed int64) (cr chainResult) {
	nCells, nNets := p.NCells, len(p.Nets)
	cols, nSlots := sh.cols, sh.nSlots
	sc := acquireAnnealScratch(nCells, nSlots, nNets)
	defer annealScratchPool.Put(sc)
	rng := rand.New(rand.NewSource(seed))
	pl := NewPlacement(nCells)

	// Initial layout: opts.Initial's slots, or a random permutation
	// (in-place Fisher–Yates over the slot indices).
	for s := range sc.cellAt {
		sc.cellAt[s] = -1
	}
	if opts.Initial != nil {
		for c := 0; c < nCells; c++ {
			s := int32(int(math.Floor(opts.Initial.Y[c]))*cols + int(math.Floor(opts.Initial.X[c])))
			sc.slotOf[c] = s
			sc.cellAt[s] = int32(c)
		}
	} else {
		for c := 0; c < nCells; c++ {
			sc.slotOf[c] = int32(c)
		}
		// Assign cell c the c-th element of a random permutation of the
		// slots, drawn lazily: swap a random tail slot into position c.
		// Equivalent to rng.Perm(nSlots)[:nCells] without the allocation
		// — but note the draws differ, so results differ from rand.Perm.
		for s := range sc.cellAt {
			sc.cellAt[s] = int32(s) // temporarily: identity over slots
		}
		for c := 0; c < nCells; c++ {
			j := c + rng.Intn(nSlots-c)
			sc.cellAt[c], sc.cellAt[j] = sc.cellAt[j], sc.cellAt[c]
		}
		// cellAt[0:nCells] now holds the chosen slots; scatter to maps.
		chosen := make([]int32, nCells)
		copy(chosen, sc.cellAt[:nCells])
		for s := range sc.cellAt {
			sc.cellAt[s] = -1
		}
		for c := 0; c < nCells; c++ {
			sc.slotOf[c] = chosen[c]
			sc.cellAt[chosen[c]] = int32(c)
		}
	}
	for c := 0; c < nCells; c++ {
		s := int(sc.slotOf[c])
		pl.X[c] = float64(s%cols) + 0.5
		pl.Y[c] = float64(s/cols) + 0.5
	}

	// rescanNet recomputes one net's exact box and cost from current
	// coordinates and the precomputed pad box.
	rescanNet := func(ni int32) {
		net := &p.Nets[ni]
		minX, maxX := sh.padMinX[ni], sh.padMaxX[ni]
		minY, maxY := sh.padMinY[ni], sh.padMaxY[ni]
		for _, c := range net.Cells {
			x, y := pl.X[c], pl.Y[c]
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
		}
		sc.bbMinX[ni], sc.bbMaxX[ni] = minX, maxX
		sc.bbMinY[ni], sc.bbMaxY[ni] = minY, maxY
		sc.netCost[ni] = sh.weight[ni] * ((maxX - minX) + (maxY - minY))
	}
	cost := 0.0
	for ni := int32(0); ni < int32(nNets); ni++ {
		rescanNet(ni)
		cost += sc.netCost[ni]
	}

	temp := opts.InitialTemp
	if temp <= 0 {
		// 20× randomises a random start; 1× keeps a given one.
		scale := 1.0
		if opts.Initial == nil {
			scale = 20
		}
		temp = estimateInitialTemp(p, sh, sc, pl, rng, scale)
	}
	// The range limiter's window radius, in slots: the whole grid
	// until the acceptance ratio falls below 0.44.
	fullGrid := float64(max(sh.cols, sh.rows))
	rlim := fullGrid
	for ; !scheduleDone(temp, cost, opts.MinTemp, nNets); temp *= cooling {
		stepAccepted := cr.accepted
		for m := 0; m < movesPerT; m++ {
			cr.moves++
			a := rng.Intn(nCells)
			target := sh.windowTarget(rng, sc.slotOf[a], int(rlim))
			b := sc.cellAt[target]
			if int(b) == a {
				continue // a one-slot grid: nowhere to go
			}
			oldSlot := sc.slotOf[a]

			// Collect the union of nets touching a and b, flat and
			// map-free: epoch stamps dedup, who records which movers
			// each net contains.
			epoch := sc.nextEpoch()
			nAff := 0
			for _, ni := range sh.netList[sh.netStart[a]:sh.netStart[a+1]] {
				if sc.mark[ni] != epoch {
					sc.mark[ni] = epoch
					sc.who[ni] = 1
					sc.aff[nAff] = ni
					nAff++
				}
			}
			if b >= 0 {
				for _, ni := range sh.netList[sh.netStart[b]:sh.netStart[b+1]] {
					if sc.mark[ni] != epoch {
						sc.mark[ni] = epoch
						sc.who[ni] = 2
						sc.aff[nAff] = ni
						nAff++
					} else {
						sc.who[ni] |= 2
					}
				}
			}

			// Apply the move: a to target; b (if any) to a's old slot.
			oax, oay := pl.X[a], pl.Y[a]
			nax := float64(int(target)%cols) + 0.5
			nay := float64(int(target)/cols) + 0.5
			sc.slotOf[a] = target
			sc.cellAt[target] = int32(a)
			sc.cellAt[oldSlot] = b
			pl.X[a], pl.Y[a] = nax, nay
			if b >= 0 {
				sc.slotOf[b] = oldSlot
				pl.X[b], pl.Y[b] = oax, oay
			}

			// Per affected net: incremental box update, exact rescan
			// when a moved pin sat on the old box boundary (the box may
			// shrink and the cached state cannot tell by how much).
			delta := 0.0
			for k := 0; k < nAff; k++ {
				ni := sc.aff[k]
				minX, maxX := sc.bbMinX[ni], sc.bbMaxX[ni]
				minY, maxY := sc.bbMinY[ni], sc.bbMaxY[ni]
				sc.sMinX[k], sc.sMaxX[k] = minX, maxX
				sc.sMinY[k], sc.sMaxY[k] = minY, maxY
				sc.sCost[k] = sc.netCost[ni]
				who := sc.who[ni]
				rescan := false
				if who&1 != 0 && (oax == minX || oax == maxX || oay == minY || oay == maxY) {
					rescan = true
				}
				// b's old position is the target slot center (nax, nay).
				if !rescan && who&2 != 0 && (nax == minX || nax == maxX || nay == minY || nay == maxY) {
					rescan = true
				}
				if rescan {
					cr.recomputes++
					rescanNet(ni)
				} else {
					if who&1 != 0 { // a's new position
						if nax < minX {
							minX = nax
						}
						if nax > maxX {
							maxX = nax
						}
						if nay < minY {
							minY = nay
						}
						if nay > maxY {
							maxY = nay
						}
					}
					if who&2 != 0 { // b's new position (a's old slot)
						if oax < minX {
							minX = oax
						}
						if oax > maxX {
							maxX = oax
						}
						if oay < minY {
							minY = oay
						}
						if oay > maxY {
							maxY = oay
						}
					}
					sc.bbMinX[ni], sc.bbMaxX[ni] = minX, maxX
					sc.bbMinY[ni], sc.bbMaxY[ni] = minY, maxY
					sc.netCost[ni] = sh.weight[ni] * ((maxX - minX) + (maxY - minY))
				}
				delta += sc.netCost[ni] - sc.sCost[k]
			}

			if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
				cost += delta
				cr.accepted++
				if opts.SelfCheck {
					full := p.HPWL(pl)
					if math.Abs(cost-full) > 1e-6*(1+math.Abs(full)) {
						cr.err = fmt.Errorf("incremental cost %g drifted from full recompute %g after %d accepted moves", cost, full, cr.accepted)
						cr.pl = pl
						cr.hpwl = full
						cr.temp = temp
						return cr
					}
				}
				continue
			}
			// Reject: undo slots, coordinates, and cached net state.
			sc.slotOf[a] = oldSlot
			sc.cellAt[oldSlot] = int32(a)
			sc.cellAt[target] = b
			pl.X[a], pl.Y[a] = oax, oay
			if b >= 0 {
				sc.slotOf[b] = target
				pl.X[b], pl.Y[b] = nax, nay
			}
			for k := 0; k < nAff; k++ {
				ni := sc.aff[k]
				sc.bbMinX[ni], sc.bbMaxX[ni] = sc.sMinX[k], sc.sMaxX[k]
				sc.bbMinY[ni], sc.bbMaxY[ni] = sc.sMinY[k], sc.sMaxY[k]
				sc.netCost[ni] = sc.sCost[k]
			}
		}
		ratio := float64(cr.accepted-stepAccepted) / float64(movesPerT)
		rlim = min(max(rlim*(1-0.44+ratio), 1), fullGrid)
	}
	cr.pl = pl
	cr.hpwl = p.HPWL(pl) // exact final recompute, drift-free
	cr.temp = temp
	return cr
}

// scheduleDone is the exit rule: T ≤ minTemp when minTemp is set,
// else T < 0.005 · cost / nets, below which uphill moves are all but
// always rejected. A zero-cost placement cannot improve, so it stops.
func scheduleDone(temp, cost, minTemp float64, nNets int) bool {
	if minTemp > 0 {
		return temp <= minTemp
	}
	return cost <= 0 || temp < 0.005*cost/float64(nNets)
}

// windowTarget draws a target slot uniformly among the slots of the
// window of radius r (in slots, per axis) around slot from, clipped to
// the grid, other than from itself, so no move is spent standing still.
// A one-slot grid returns from.
func (sh *annealShared) windowTarget(rng *rand.Rand, from int32, r int) int32 {
	x, y := int(from)%sh.cols, int(from)/sh.cols
	x0, x1 := max(x-r, 0), min(x+r, sh.cols-1)
	y0, y1 := max(y-r, 0), min(y+r, sh.rows-1)
	w := x1 - x0 + 1
	n := w * (y1 - y0 + 1)
	if n == 1 {
		return from
	}
	k := rng.Intn(n - 1)
	if k >= (y-y0)*w+x-x0 {
		k++ // skip from's own index in the window
	}
	return int32((y0+k/w)*sh.cols + x0 + k%w)
}

// estimateInitialTemp probes 50 random single-cell column moves and
// returns scale × their mean |ΔHPWL| (1 below two cells or at mean 0).
// It restores every coordinate it touches and uses only the chain's
// own RNG, so it is deterministic per chain.
func estimateInitialTemp(p *Problem, sh *annealShared, sc *annealScratch, pl *Placement, rng *rand.Rand, scale float64) float64 {
	if p.NCells < 2 {
		return 1
	}
	sum := 0.0
	for k := 0; k < 50; k++ {
		a := rng.Intn(p.NCells)
		nets := sh.netList[sh.netStart[a]:sh.netStart[a+1]]
		epoch := sc.nextEpoch()
		before := 0.0
		for _, ni := range nets {
			if sc.mark[ni] != epoch {
				sc.mark[ni] = epoch
				before += p.netHPWL(&p.Nets[ni], pl)
			}
		}
		ox := pl.X[a]
		pl.X[a] = float64(rng.Intn(sh.cols)) + 0.5
		epoch = sc.nextEpoch()
		after := 0.0
		for _, ni := range nets {
			if sc.mark[ni] != epoch {
				sc.mark[ni] = epoch
				after += p.netHPWL(&p.Nets[ni], pl)
			}
		}
		pl.X[a] = ox
		sum += math.Abs(after - before)
	}
	mean := sum / 50
	if mean == 0 {
		return 1
	}
	return scale * mean
}

// Random places cells uniformly at random (the course's "how bad can
// it be" baseline).
func Random(p *Problem, seed int64) *Placement {
	rng := rand.New(rand.NewSource(seed))
	pl := NewPlacement(p.NCells)
	for c := 0; c < p.NCells; c++ {
		pl.X[c] = rng.Float64() * p.W
		pl.Y[c] = rng.Float64() * p.H
	}
	return pl
}
