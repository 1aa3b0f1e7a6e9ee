package techmap

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Objective selects the covering cost function.
type Objective int

const (
	// MinArea minimizes total gate area.
	MinArea Objective = iota
	// MinDelay minimizes the worst output arrival time under the
	// library's gate delays.
	MinDelay
)

// Match is one chosen gate instance in the cover.
type Match struct {
	Gate   string
	Root   int   // subject node implemented by the gate output
	Leaves []int // subject nodes feeding the gate pins
}

// Result is a completed mapping.
type Result struct {
	Matches []Match
	Area    float64
	Delay   float64 // worst output arrival under the chosen cover
}

// sol is the per-node dynamic-programming entry. The winning match's
// leaf nodes live in the scratch arena at [off, off+n) — storing an
// offset pair instead of a slice lets a better candidate supersede a
// worse one without either allocating.
type sol struct {
	cost float64
	gate int32
	off  int32
	n    int32
}

// mapScratch holds Map's recyclable working state: the DP table and
// its leaf arena, the candidate-match probe buffer, the emit ledger
// and the delay-pass arrival table. A sync.Pool recycles it across
// calls, so a Map run allocates only its Result once the pool is warm
// (the route/anneal/place scratch pattern).
type mapScratch struct {
	best    []sol
	arena   []int32 // committed DP leaves, addressed by sol.off/sol.n
	probe   []int32 // per-candidate matchAt accumulator
	order   []int32 // emit order: match roots in pre-order DFS from the roots
	emitted []bool
	arr     []float64 // mappedDelay arrivals
	done    []bool
	roots   []int
}

var mapScratchPool = sync.Pool{New: func() any { return new(mapScratch) }}

func acquireMapScratch(n int) *mapScratch {
	sc := mapScratchPool.Get().(*mapScratch)
	if cap(sc.best) < n {
		sc.best = make([]sol, n)
		sc.emitted = make([]bool, n)
		sc.arr = make([]float64, n)
		sc.done = make([]bool, n)
	} else {
		sc.best = sc.best[:n]
		sc.emitted = sc.emitted[:n]
		sc.arr = sc.arr[:n]
		sc.done = sc.done[:n]
	}
	clear(sc.emitted)
	clear(sc.done)
	sc.arena = sc.arena[:0]
	sc.probe = sc.probe[:0]
	sc.order = sc.order[:0]
	sc.roots = sc.roots[:0]
	return sc
}

// matchAt overlays a pattern on the subject graph rooted at id,
// collecting the subject nodes under the pattern's pins.
func matchAt(s *Subject, p *Pattern, id int, leaves *[]int32) bool {
	switch p.Kind {
	case KInput:
		*leaves = append(*leaves, int32(id))
		return true
	case KInv:
		n := s.Nodes[id]
		if n.Kind != KInv {
			return false
		}
		return matchAt(s, p.A, n.A, leaves)
	default: // KNand
		n := s.Nodes[id]
		if n.Kind != KNand {
			return false
		}
		save := len(*leaves)
		if matchAt(s, p.A, n.A, leaves) && matchAt(s, p.B, n.B, leaves) {
			return true
		}
		*leaves = (*leaves)[:save]
		if matchAt(s, p.A, n.B, leaves) && matchAt(s, p.B, n.A, leaves) {
			return true
		}
		*leaves = (*leaves)[:save]
		return false
	}
}

// Map covers the subject graph with library gates using dynamic
// programming per tree: trees are split at multi-fanout points, whose
// roots become free leaves of the trees that consume them, exactly as
// the course presents tree covering.
func Map(s *Subject, lib []Gate, obj Objective) (*Result, error) {
	if len(lib) == 0 {
		return nil, fmt.Errorf("techmap: empty library")
	}
	boundary := func(id int) bool {
		n := s.Nodes[id]
		return n.Kind == KInput || s.Fanout(id) > 1
	}

	sc := acquireMapScratch(len(s.Nodes))
	defer mapScratchPool.Put(sc)
	best := sc.best
	for i := range best {
		best[i] = sol{cost: math.Inf(1), gate: -1}
	}

	// Nodes are created children-first, so id order is topological.
	for id := range s.Nodes {
		n := s.Nodes[id]
		if n.Kind == KInput {
			best[id] = sol{cost: 0, gate: -1}
			continue
		}
		for gi, g := range lib {
			sc.probe = sc.probe[:0]
			if !matchAt(s, g.Pat, id, &sc.probe) {
				continue
			}
			// Nodes strictly inside the match must have a single
			// fanout; otherwise shared logic would be duplicated.
			if !internalNodesFree(s, g.Pat, id, true) {
				continue
			}
			var cost float64
			if obj == MinDelay {
				worst := 0.0
				for _, leaf := range sc.probe {
					if a := best[leaf].cost; s.Nodes[leaf].Kind != KInput && a > worst {
						worst = a
					}
				}
				cost = worst + g.Delay
			} else {
				cost = g.Area
				for _, leaf := range sc.probe {
					// A boundary (multi-fanout) leaf's area is paid
					// once when its own tree is emitted; inside one
					// tree the child's DP cost folds in.
					if s.Nodes[leaf].Kind != KInput && !boundary(int(leaf)) {
						cost += best[leaf].cost
					}
				}
			}
			if cost < best[id].cost {
				best[id] = sol{cost: cost, gate: int32(gi),
					off: int32(len(sc.arena)), n: int32(len(sc.probe))}
				sc.arena = append(sc.arena, sc.probe...)
			}
		}
		if best[id].gate < 0 {
			return nil, fmt.Errorf("techmap: node %d unmatchable with library", id)
		}
	}

	// Emit matches reachable from the roots: first walk the cover in
	// pre-order DFS to fix the emit order, then fill an exactly-sized
	// Result whose Leaves slices share one fresh backing array — the
	// Result never references pooled memory.
	var emit func(id int)
	emit = func(id int) {
		if sc.emitted[id] || s.Nodes[id].Kind == KInput {
			return
		}
		sc.emitted[id] = true
		sc.order = append(sc.order, int32(id))
		b := best[id]
		for k := b.off; k < b.off+b.n; k++ {
			emit(int(sc.arena[k]))
		}
	}
	for _, r := range s.Roots {
		sc.roots = append(sc.roots, r)
	}
	slices.Sort(sc.roots)
	for _, r := range sc.roots {
		emit(r)
	}
	total := 0
	for _, id := range sc.order {
		total += int(best[id].n)
	}
	res := &Result{Matches: make([]Match, len(sc.order))}
	backing := make([]int, total)
	at := 0
	for mi, id := range sc.order {
		b := best[id]
		g := lib[b.gate]
		seg := backing[at : at+int(b.n) : at+int(b.n)]
		for k := range seg {
			seg[k] = int(sc.arena[b.off+int32(k)])
		}
		at += int(b.n)
		res.Matches[mi] = Match{Gate: g.Name, Root: int(id), Leaves: seg}
		res.Area += g.Area
	}
	res.Delay = mappedDelay(s, lib, sc)
	slices.SortFunc(res.Matches, func(a, b Match) int { return cmp.Compare(a.Root, b.Root) })
	return res, nil
}

// internalNodesFree checks that every subject node strictly inside the
// pattern match (not the root, not under a pin) has a single fanout.
func internalNodesFree(s *Subject, p *Pattern, sid int, isRoot bool) bool {
	if p.Kind == KInput {
		return true
	}
	if !isRoot {
		if n := s.Nodes[sid]; n.Kind == KInput || s.Fanout(sid) > 1 {
			return false
		}
	}
	n := s.Nodes[sid]
	switch p.Kind {
	case KInv:
		if n.Kind != KInv {
			return false
		}
		return internalNodesFree(s, p.A, n.A, false)
	default:
		if n.Kind != KNand {
			return false
		}
		if internalNodesFree(s, p.A, n.A, false) && internalNodesFree(s, p.B, n.B, false) {
			return true
		}
		return internalNodesFree(s, p.A, n.B, false) && internalNodesFree(s, p.B, n.A, false)
	}
}

// mappedDelay computes the worst root arrival with a forward pass over
// the chosen matches, memoizing into the scratch arrival table.
func mappedDelay(s *Subject, lib []Gate, sc *mapScratch) float64 {
	var at func(id int) float64
	at = func(id int) float64 {
		if s.Nodes[id].Kind == KInput {
			return 0
		}
		if sc.done[id] {
			return sc.arr[id]
		}
		b := sc.best[id]
		worst := 0.0
		for k := b.off; k < b.off+b.n; k++ {
			if a := at(int(sc.arena[k])); a > worst {
				worst = a
			}
		}
		v := worst + lib[b.gate].Delay
		sc.arr[id] = v
		sc.done[id] = true
		return v
	}
	worst := 0.0
	for _, r := range sc.roots {
		if a := at(r); a > worst {
			worst = a
		}
	}
	return worst
}

func evalPattern(p *Pattern, leaves []bool, idx *int) bool {
	switch p.Kind {
	case KInput:
		v := leaves[*idx]
		*idx++
		return v
	case KInv:
		return !evalPattern(p.A, leaves, idx)
	default:
		a := evalPattern(p.A, leaves, idx)
		b := evalPattern(p.B, leaves, idx)
		return !(a && b)
	}
}
