package bdd

import (
	"fmt"
	"sort"
	"strings"
)

// Dot renders the BDD rooted at f in Graphviz DOT form — the offline
// replacement for the course's browser-based diagram viewer. Solid
// edges are the 1-cofactor, dashed the 0-cofactor.
func (m *Manager) Dot(f Node, name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=TB;\n")
	b.WriteString("  node0 [label=\"0\", shape=box];\n")
	b.WriteString("  node1 [label=\"1\", shape=box];\n")

	seen := map[Node]bool{FalseNode: true, TrueNode: true}
	byLevel := map[int32][]Node{}
	var collect func(n Node)
	collect = func(n Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		rec := m.nodes[n]
		byLevel[rec.level] = append(byLevel[rec.level], n)
		collect(rec.lo)
		collect(rec.hi)
	}
	collect(f)

	var levels []int32
	for lvl := range byLevel {
		levels = append(levels, lvl)
	}
	sort.Slice(levels, func(i, j int) bool { return levels[i] < levels[j] })
	for _, lvl := range levels {
		nodes := byLevel[lvl]
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		b.WriteString("  { rank=same;")
		for _, n := range nodes {
			fmt.Fprintf(&b, " node%d;", n)
		}
		b.WriteString(" }\n")
		for _, n := range nodes {
			rec := m.nodes[n]
			fmt.Fprintf(&b, "  node%d [label=%q, shape=circle];\n",
				n, m.names[m.varAtLevel[rec.level]])
			fmt.Fprintf(&b, "  node%d -> node%d [style=dashed];\n", n, rec.lo)
			fmt.Fprintf(&b, "  node%d -> node%d;\n", n, rec.hi)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
