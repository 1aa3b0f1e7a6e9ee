package mls

import (
	"fmt"
	"sort"

	"vlsicad/internal/bdd"
	"vlsicad/internal/cube"
	"vlsicad/internal/espresso"
	"vlsicad/internal/netlist"
)

// Network-level synthesis operations. All of them preserve the
// network's Boolean function (verified in tests with BDD/SAT
// equivalence checking).

// symtab maps signal names to algebraic variable ids in a shared space
// so divisors can be compared across nodes.
type symtab struct {
	ids   map[string]int
	names []string
}

func newSymtab(nw *netlist.Network) *symtab {
	st := &symtab{ids: map[string]int{}}
	for _, s := range nw.Signals() {
		st.ids[s] = len(st.names)
		st.names = append(st.names, s)
	}
	return st
}

func (st *symtab) lit(signal string, neg bool) ALit {
	id, ok := st.ids[signal]
	if !ok {
		id = len(st.names)
		st.ids[signal] = id
		st.names = append(st.names, signal)
	}
	l := ALit(2 * id)
	if neg {
		l++
	}
	return l
}

// nodeACover lifts a node's local cover into the shared space.
func (st *symtab) nodeACover(n *netlist.Node) ACover {
	var out ACover
	for _, c := range n.Cover.Cubes {
		var ac ACube
		for i, l := range c {
			switch l {
			case cube.Pos:
				ac = append(ac, st.lit(n.Fanins[i], false))
			case cube.Neg:
				ac = append(ac, st.lit(n.Fanins[i], true))
			}
		}
		ac.sortInPlace()
		out = append(out, ac)
	}
	return out.normalize()
}

// nodeCovers lifts the named nodes into the shared space once, in
// order (so symtab ids are assigned in that order), and records each
// cover's literal support.
func (st *symtab) nodeCovers(nw *netlist.Network, names []string) ([]ACover, []litSet) {
	covers := make([]ACover, len(names))
	sups := make([]litSet, len(names))
	for i, name := range names {
		covers[i] = st.nodeACover(nw.Nodes[name])
		sups[i] = supportOf(covers[i])
	}
	return covers, sups
}

// litSet is a set of algebraic literals, one bit per literal.
type litSet []uint64

func supportOf(f ACover) litSet {
	var s litSet
	for _, c := range f {
		for _, l := range c {
			w := int(l) / 64
			for len(s) <= w {
				s = append(s, 0)
			}
			s[w] |= 1 << (uint(l) % 64)
		}
	}
	return s
}

// subsetOf reports whether every literal of s is in t. When the
// support of D is not a subset of F's, some cube of D holds a literal
// no cube of F has, so that cube divides nothing and F / D has no
// quotient: callers skip such pairs instead of dividing.
func (s litSet) subsetOf(t litSet) bool {
	for i, w := range s {
		var tw uint64
		if i < len(t) {
			tw = t[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// sortedNodeNames lists the network's node names in sorted order.
func sortedNodeNames(nw *netlist.Network) []string {
	names := make([]string, 0, len(nw.Nodes))
	for name := range nw.Nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// setNodeFromACover rewrites a node from a shared-space cover.
func (st *symtab) setNodeFromACover(nw *netlist.Network, name string, f ACover) {
	// Collect support signals.
	varSet := map[int]bool{}
	for _, c := range f {
		for _, l := range c {
			varSet[l.AVar()] = true
		}
	}
	var vars []int
	for v := range varSet {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	pos := map[int]int{}
	fanins := make([]string, len(vars))
	for i, v := range vars {
		pos[v] = i
		fanins[i] = st.names[v]
	}
	cov := cube.NewCover(len(vars))
	for _, ac := range f {
		c := cube.NewCube(len(vars))
		void := false
		for _, l := range ac {
			i := pos[l.AVar()]
			want := cube.Pos
			if l.Neg() {
				want = cube.Neg
			}
			if c[i] != cube.DC && c[i] != want {
				void = true
				break
			}
			c[i] = want
		}
		if !void {
			cov.Add(c)
		}
	}
	nw.AddNode(name, fanins, cov)
}

// Stats summarizes a network for the course's print_stats command.
type Stats struct {
	Nodes        int
	SOPLits      int
	FactoredLits int
}

// NetworkStats computes node count and the SOP / factored literal
// totals.
func NetworkStats(nw *netlist.Network) Stats {
	st := newSymtab(nw)
	s := Stats{Nodes: len(nw.Nodes)}
	for _, n := range nw.Nodes {
		s.SOPLits += n.Cover.Literals()
		s.FactoredLits += FactoredLits(st.nodeACover(n))
	}
	return s
}

// Simplify runs two-level minimization (espresso) on every node.
// It returns the literal savings.
func Simplify(nw *netlist.Network) int {
	saved := 0
	for _, n := range nw.Nodes {
		before := n.Cover.Literals()
		min, _ := espresso.Minimize(n.Cover, nil)
		if min.Literals() < before {
			n.Cover = min
			saved += before - min.Literals()
		}
	}
	return saved
}

// FullSimplify runs espresso per node with satisfiability don't-cares
// derived from the fanin functions (via BDDs over the primary
// inputs). Nodes with more than maxFanin fanins are skipped.
func FullSimplify(nw *netlist.Network, maxFanin int) (int, error) {
	m, _, vars, err := nw.BuildBDDs()
	if err != nil {
		return 0, err
	}
	// Recompute every internal signal's BDD.
	sigBDD := map[string]bdd.Node{}
	for name, v := range vars {
		sigBDD[name] = m.Var(v)
	}
	order, err := nw.TopoSort()
	if err != nil {
		return 0, err
	}
	for _, n := range order {
		f := m.False()
		for _, c := range n.Cover.Cubes {
			term := m.True()
			for i, l := range c {
				g := sigBDD[n.Fanins[i]]
				switch l {
				case cube.Pos:
					term = m.And(term, g)
				case cube.Neg:
					term = m.And(term, m.Not(g))
				case cube.Void:
					term = m.False()
				}
			}
			f = m.Or(f, term)
		}
		sigBDD[n.Name] = f
	}
	saved := 0
	for _, n := range order {
		k := len(n.Fanins)
		if k == 0 || k > maxFanin {
			continue
		}
		// Local SDC: fanin patterns no primary-input assignment can
		// produce.
		dc := cube.NewCover(k)
		for p := uint(0); p < 1<<uint(k); p++ {
			cond := m.True()
			for i := 0; i < k; i++ {
				g := sigBDD[n.Fanins[i]]
				if p&(1<<uint(i)) == 0 {
					g = m.Not(g)
				}
				cond = m.And(cond, g)
			}
			if cond == m.False() {
				dc.Add(mintermCube(k, p))
			}
		}
		before := n.Cover.Literals()
		min, _ := espresso.Minimize(n.Cover, dc)
		if min.Literals() < before {
			n.Cover = min
			saved += before - min.Literals()
		}
	}
	return saved, nil
}

func mintermCube(n int, m uint) cube.Cube {
	c := cube.NewCube(n)
	for i := 0; i < n; i++ {
		if m&(1<<uint(i)) != 0 {
			c[i] = cube.Pos
		} else {
			c[i] = cube.Neg
		}
	}
	return c
}

// SweepConstants propagates constant-0/1 nodes into their fanouts and
// removes dangling logic. It returns the number of nodes removed.
func SweepConstants(nw *netlist.Network) int {
	removed := 0
	for {
		changed := false
		for _, n := range nw.Nodes {
			for i, fin := range n.Fanins {
				src, ok := nw.Nodes[fin]
				if !ok || len(src.Fanins) != 0 {
					continue
				}
				// src is a constant node.
				val := !src.Cover.IsEmpty()
				n.Cover = restrictCover(n.Cover, i, val)
				n.Fanins = append(append([]string(nil), n.Fanins[:i]...), n.Fanins[i+1:]...)
				changed = true
				break
			}
		}
		if !changed {
			break
		}
	}
	removed += nw.Sweep()
	return removed
}

// restrictCover fixes fanin position i of the cover to a constant and
// drops the column.
func restrictCover(f *cube.Cover, i int, val bool) *cube.Cover {
	out := cube.NewCover(f.N - 1)
	for _, c := range f.Cubes {
		keep := true
		switch c[i] {
		case cube.Pos:
			keep = val
		case cube.Neg:
			keep = !val
		}
		if !keep {
			continue
		}
		nc := make(cube.Cube, 0, f.N-1)
		nc = append(nc, c[:i]...)
		nc = append(nc, c[i+1:]...)
		out.Add(nc)
	}
	return out
}

// Eliminate collapses nodes whose elimination "value" is below the
// threshold into their fanouts (the SIS eliminate command). The value
// of a node with l SOP literals and k literal references in fanouts is
// (k-1)(l-1)-1: the literal growth caused by substituting it
// everywhere. It returns the number of nodes eliminated.
func Eliminate(nw *netlist.Network, threshold int) int {
	count := 0
	for {
		victim := ""
		fanouts := nw.Fanouts()
		for _, name := range sortedNodeNames(nw) {
			n := nw.Nodes[name]
			if nw.IsOutput(name) {
				continue
			}
			refs := 0
			for _, fo := range fanouts[name] {
				for i, fin := range nw.Nodes[fo].Fanins {
					if fin != name {
						continue
					}
					for _, c := range nw.Nodes[fo].Cover.Cubes {
						if c[i] != cube.DC {
							refs++
						}
					}
				}
			}
			if refs == 0 {
				continue
			}
			l := n.Cover.Literals()
			value := (refs-1)*(l-1) - 1
			if value < threshold {
				victim = name
				break
			}
		}
		if victim == "" {
			return count
		}
		collapseNode(nw, victim)
		nw.Sweep()
		count++
	}
}

// collapseNode substitutes node y into every fanout using Boolean
// composition: G' = G|y=1 · F + G|y=0 · F'.
func collapseNode(nw *netlist.Network, name string) {
	y := nw.Nodes[name]
	fanouts := nw.Fanouts()[name]
	for _, foName := range fanouts {
		g := nw.Nodes[foName]
		idx := -1
		for i, fin := range g.Fanins {
			if fin == name {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue
		}
		// Joint fanin list: g's fanins (minus y) plus y's fanins.
		joint := []string{}
		pos := map[string]int{}
		for _, fin := range g.Fanins {
			if fin == name {
				continue
			}
			if _, ok := pos[fin]; !ok {
				pos[fin] = len(joint)
				joint = append(joint, fin)
			}
		}
		for _, fin := range y.Fanins {
			if _, ok := pos[fin]; !ok {
				pos[fin] = len(joint)
				joint = append(joint, fin)
			}
		}
		lift := func(f *cube.Cover, fanins []string) *cube.Cover {
			out := cube.NewCover(len(joint))
			for _, c := range f.Cubes {
				nc := cube.NewCube(len(joint))
				void := false
				for i, l := range c {
					if l == cube.DC {
						continue
					}
					j := pos[fanins[i]]
					if nc[j] != cube.DC && nc[j] != l {
						void = true
						break
					}
					nc[j] = l
				}
				if !void {
					out.Add(nc)
				}
			}
			return out
		}
		gPos := lift(restrictCover(g.Cover, idx, true), removeAt(g.Fanins, idx))
		gNeg := lift(restrictCover(g.Cover, idx, false), removeAt(g.Fanins, idx))
		fCov := lift(y.Cover, y.Fanins)
		fNeg := fCov.Complement()
		newCover := gPos.And(fCov).Or(gNeg.And(fNeg))
		nw.AddNode(foName, joint, newCover)
	}
}

func removeAt(s []string, i int) []string {
	out := make([]string, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

// ExtractKernels performs greedy common-divisor extraction (the SIS
// fx command): repeatedly find the kernel whose extraction as a new
// node saves the most SOP literals, and rewrite all divisible nodes to
// use it. New nodes are named prefix0, prefix1, ... It returns the
// number of new nodes created.
func ExtractKernels(nw *netlist.Network, prefix string, maxIter int) int {
	created := 0
	for iter := 0; iter < maxIter; iter++ {
		st := newSymtab(nw)
		type cand struct {
			k     ACover
			sup   litSet
			saved int
		}
		// Each node's cover is lifted once per iteration and serves
		// kernel collection, scoring and the rewrite below: a node is
		// rewritten only when the apply loop reaches it.
		names := sortedNodeNames(nw)
		covers, sups := st.nodeCovers(nw, names)
		// Collect kernels from all nodes.
		kernelSet := map[string]ACover{}
		for _, ac := range covers {
			if len(ac) > 30 {
				continue // bound kernel explosion
			}
			for _, k := range Kernels(ac) {
				if len(k.K) >= 2 {
					kernelSet[coverKey(k.K)] = k.K
				}
			}
		}
		var best *cand
		var keys []string
		for key := range kernelSet {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			k := kernelSet[key]
			ksup := supportOf(k)
			saved := -k.Lits() // cost of the new node
			for i, ac := range covers {
				if !ksup.subsetOf(sups[i]) {
					continue
				}
				q, r := divide(ac, k)
				if len(q) == 0 {
					continue
				}
				newLits := q.Lits() + len(q) + r.Lits()
				if d := ac.Lits() - newLits; d > 0 {
					saved += d
				}
			}
			if best == nil || saved > best.saved {
				best = &cand{k: k, sup: ksup, saved: saved}
			}
		}
		if best == nil || best.saved <= 0 {
			return created
		}
		// Apply: create the new node and rewrite beneficiaries.
		newName := fmt.Sprintf("%s%d", prefix, created)
		for nw.Nodes[newName] != nil || nw.IsInput(newName) {
			newName += "_"
		}
		st.setNodeFromACover(nw, newName, best.k)
		tLit := st.lit(newName, false)
		for i, ac := range covers {
			if !best.sup.subsetOf(sups[i]) {
				continue
			}
			q, r := divide(ac, best.k)
			if len(q) == 0 {
				continue
			}
			newLits := q.Lits() + len(q) + r.Lits()
			if ac.Lits()-newLits <= 0 {
				continue
			}
			var rewritten ACover
			for _, qc := range q {
				rewritten = append(rewritten, cubeProduct(qc, ACube{tLit}))
			}
			rewritten = append(rewritten, r...)
			st.setNodeFromACover(nw, names[i], rewritten.normalize())
		}
		created++
	}
	return created
}

// Decompose breaks every node with more than two fanin literals per
// cube (or more than two cubes) into a tree of one- and two-input
// nodes derived from its factored form — the standard preparation for
// technology mapping. It returns the number of nodes added.
func Decompose(nw *netlist.Network) int {
	st := newSymtab(nw)
	added := 0
	names := sortedNodeNames(nw)
	fresh := 0
	newSignal := func(base string) string {
		for {
			name := fmt.Sprintf("%s_d%d", base, fresh)
			fresh++
			if nw.Nodes[name] == nil && !nw.IsInput(name) {
				return name
			}
		}
	}
	for _, name := range names {
		n := nw.Nodes[name]
		if len(n.Fanins) == 0 {
			continue // constant node
		}
		// Contained cubes are redundant; factored, they would lower
		// into redundant nodes (a·b' + a as a·(1 + b')). The node is
		// rewritten below, so its cover may be trimmed in place.
		n.Cover.SCC()
		expr := Factor(st.nodeACover(n))
		// Lower the expression tree to two-input nodes; the root keeps
		// the original name.
		var lower func(e Expr, target string)
		emit := func(target string, fanins []string, rows []string) {
			cov, err := cube.ParseCover(rows)
			if err != nil {
				panic(err)
			}
			if target != name {
				added++
			}
			nw.AddNode(target, fanins, cov)
		}
		var operand func(e Expr) (string, bool) // signal, negated
		operand = func(e Expr) (string, bool) {
			if le, ok := e.(LitExpr); ok {
				return st.names[le.L.AVar()], le.L.Neg()
			}
			t := newSignal(name)
			lower(e, t)
			return t, false
		}
		lower = func(e Expr, target string) {
			switch ex := e.(type) {
			case LitExpr:
				sig := st.names[ex.L.AVar()]
				if ex.L.Neg() {
					emit(target, []string{sig}, []string{"0"})
				} else {
					emit(target, []string{sig}, []string{"1"})
				}
			case AndExpr:
				if len(ex.Factors) == 0 {
					// The empty product — the cube with no literals,
					// as in a node whose cover is "-" — is constant
					// 1: one cube over no fanins.
					emit(target, nil, []string{""})
					return
				}
				lowerAssoc(ex.Factors, target, true, operand, emit, newSignal, name)
			case OrExpr:
				if len(ex.Terms) == 0 {
					if target != name {
						added++
					}
					nw.AddNode(target, nil, cube.NewCover(0))
					return
				}
				lowerAssoc(ex.Terms, target, false, operand, emit, newSignal, name)
			}
		}
		lower(expr, name)
	}
	return added
}

// lowerAssoc lowers an n-ary AND (and=true) or OR into a chain of
// two-input nodes ending at target.
func lowerAssoc(items []Expr, target string, and bool,
	operand func(Expr) (string, bool),
	emit func(string, []string, []string),
	newSignal func(string) string, base string) {

	type op struct {
		sig string
		neg bool
	}
	ops := make([]op, len(items))
	for i, it := range items {
		s, n := operand(it)
		ops[i] = op{s, n}
	}
	row := func(a, b op) []string {
		ca, cb := "1", "1"
		if a.neg {
			ca = "0"
		}
		if b.neg {
			cb = "0"
		}
		if and {
			return []string{ca + cb}
		}
		// OR: two rows with the other column as don't care.
		return []string{ca + "-", "-" + cb}
	}
	cur := ops[0]
	if len(ops) == 1 {
		if cur.neg {
			emit(target, []string{cur.sig}, []string{"0"})
		} else {
			emit(target, []string{cur.sig}, []string{"1"})
		}
		return
	}
	for i := 1; i < len(ops); i++ {
		out := target
		if i < len(ops)-1 {
			out = newSignal(base)
		}
		emit(out, []string{cur.sig, ops[i].sig}, row(cur, ops[i]))
		cur = op{out, false}
	}
}
