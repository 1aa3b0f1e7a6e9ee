package mls

import "vlsicad/internal/netlist"

// Resubstitute performs algebraic resubstitution (the SIS resub
// command): for every node pair (f, g), if g's function algebraically
// divides f's cover with a literal saving, rewrite f = q·g + r so f
// reuses the existing node g. Returns the number of rewrites.
func Resubstitute(nw *netlist.Network) int {
	rewrites := 0
	for {
		st := newSymtab(nw)
		names := sortedNodeNames(nw)
		covers, sups := st.nodeCovers(nw, names)

		type rewrite struct {
			target string
			cover  ACover
			saved  int
		}
		var best *rewrite
		// Signals transitively reachable from each node (to preserve
		// acyclicity when introducing a new dependence).
		reach := reachability(nw)

		for fi, fname := range names {
			f := covers[fi]
			if len(f) < 2 {
				continue
			}
			for gi, gname := range names {
				if fi == gi {
					continue
				}
				// Adding g as fanin of f must not create a cycle:
				// g must not (transitively) read f.
				if reach[gname][fname] {
					continue
				}
				g := covers[gi]
				if len(g) == 0 || g.Lits() == 0 || !sups[gi].subsetOf(sups[fi]) {
					continue
				}
				q, r := divide(f, g)
				if len(q) == 0 {
					continue
				}
				gLit := st.lit(gname, false)
				var rewritten ACover
				for _, qc := range q {
					rewritten = append(rewritten, cubeProduct(qc, ACube{gLit}))
				}
				rewritten = append(rewritten, r...)
				rewritten = rewritten.normalize()
				saved := f.Lits() - rewritten.Lits()
				if saved > 0 && (best == nil || saved > best.saved) {
					best = &rewrite{target: fname, cover: rewritten, saved: saved}
				}
			}
		}
		if best == nil {
			return rewrites
		}
		st.setNodeFromACover(nw, best.target, best.cover)
		rewrites++
	}
}

// reachability returns, for each node, the set of signals reachable
// through its fanin cone (i.e. the signals it transitively reads).
func reachability(nw *netlist.Network) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	var visit func(name string) map[string]bool
	visit = func(name string) map[string]bool {
		if r, ok := out[name]; ok {
			return r
		}
		r := map[string]bool{}
		out[name] = r // placeholder guards against cycles
		n, ok := nw.Nodes[name]
		if !ok {
			return r
		}
		for _, fin := range n.Fanins {
			r[fin] = true
			for s := range visit(fin) {
				r[s] = true
			}
		}
		return r
	}
	for name := range nw.Nodes {
		visit(name)
	}
	return out
}
