package bdd

// Variable ordering. The course demonstrates that BDD size is
// exquisitely order-sensitive (the 2n-variable comparator is linear
// under interleaved order and exponential under separated order).
// This file provides order transfer between managers and a sifting-
// style search for a good order.

// Transfer rebuilds f (a node of src) inside dst, which must have the
// same variable count but may use a different order. Variable
// identities are preserved: variable v in src maps to variable v in
// dst.
func Transfer(dst, src *Manager, f Node) Node {
	memo := map[Node]Node{FalseNode: FalseNode, TrueNode: TrueNode}
	var walk func(Node) Node
	walk = func(n Node) Node {
		if r, ok := memo[n]; ok {
			return r
		}
		rec := src.nodes[n]
		v := int(src.varAtLevel[rec.level])
		lo := walk(rec.lo)
		hi := walk(rec.hi)
		r := dst.ITE(dst.Var(v), hi, lo)
		memo[n] = r
		return r
	}
	return walk(f)
}

// OrderCost returns the total DAG size of the given roots when built
// under the order (order[level] = variable).
func OrderCost(src *Manager, roots []Node, order []int) int {
	dst, err := NewWithOrder(src.NVars(), order)
	if err != nil {
		return -1
	}
	seen := map[Node]bool{}
	total := 0
	for _, f := range roots {
		g := Transfer(dst, src, f)
		var count func(Node)
		count = func(n Node) {
			if seen[n] {
				return
			}
			seen[n] = true
			total++
			if dst.IsTerminal(n) {
				return
			}
			count(dst.nodes[n].lo)
			count(dst.nodes[n].hi)
		}
		count(g)
	}
	return total
}

// Sift searches for a variable order minimizing the shared DAG size of
// the given roots, using Rudell-style sifting: each variable in turn
// is moved through every position and left at its best one. It
// returns the best order found and its cost. The search rebuilds the
// diagram per trial position, which is appropriate at course scale.
func Sift(src *Manager, roots []Node) ([]int, int) {
	n := src.NVars()
	order := src.Order()
	best := OrderCost(src, roots, order)
	for v := 0; v < n; v++ {
		// Current position of variable v.
		pos := 0
		for i, u := range order {
			if u == v {
				pos = i
				break
			}
		}
		bestPos, bestCost := pos, best
		for trial := 0; trial < n; trial++ {
			if trial == pos {
				continue
			}
			cand := moveVar(order, pos, trial)
			c := OrderCost(src, roots, cand)
			if c < bestCost {
				bestPos, bestCost = trial, c
			}
		}
		if bestPos != pos {
			order = moveVar(order, pos, bestPos)
			best = bestCost
		}
	}
	return order, best
}

// moveVar returns a copy of order with the element at position from
// moved to position to.
func moveVar(order []int, from, to int) []int {
	out := make([]int, 0, len(order))
	v := order[from]
	for i, u := range order {
		if i == from {
			continue
		}
		out = append(out, u)
	}
	out = append(out, 0)
	copy(out[to+1:], out[to:])
	out[to] = v
	return out
}
