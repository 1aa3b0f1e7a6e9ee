// Package bdd implements Reduced Ordered Binary Decision Diagrams —
// the course's Week-2 representation and the engine behind the kbdd
// tool portal and software Project 2 (formal network repair).
//
// The design follows Brace/Rudell/Bryant's "Efficient Implementation
// of a BDD Package" (DAC 1990): a unique table for canonicity, an ITE
// operator with a computed-table cache, reference-protected roots and
// mark-and-sweep garbage collection.
package bdd

import (
	"fmt"
	"math"
)

// Node is an opaque handle to a BDD node inside a Manager. Handles
// are canonical: two Nodes from the same Manager represent the same
// function if and only if they are equal.
type Node int32

const (
	// FalseNode is the constant-0 terminal in every manager.
	FalseNode Node = 0
	// TrueNode is the constant-1 terminal in every manager.
	TrueNode Node = 1
)

// terminalLevel sorts terminals below every variable level.
const terminalLevel int32 = math.MaxInt32

type nodeRec struct {
	level  int32 // position in the variable order; terminalLevel for 0/1
	lo, hi Node  // cofactors at level's variable = 0 / = 1
}

type uniqueKey struct {
	level  int32
	lo, hi Node
}

type cacheKey struct {
	op      uint8
	f, g, h Node
}

const (
	opITE uint8 = iota
	opExists
	opForAll
	opCompose
	opRestrict
)

// Manager owns the node store, the unique table and the operation
// cache for one BDD universe with a fixed variable count.
type Manager struct {
	nvars      int
	varAtLevel []int32 // level -> variable index
	levelOfVar []int32 // variable index -> level
	names      []string

	nodes     []nodeRec
	unique    map[uniqueKey]Node
	cache     map[cacheKey]Node
	satCache  map[Node]float64
	protected map[Node]int
	freeList  []Node
}

// New creates a manager for n variables using the identity variable
// order (variable i at level i).
func New(n int) *Manager {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	m, err := NewWithOrder(n, order)
	if err != nil {
		panic(err) // identity order is always valid
	}
	return m
}

// NewWithOrder creates a manager whose variable order is given as a
// permutation: order[level] = variable index placed at that level.
func NewWithOrder(n int, order []int) (*Manager, error) {
	if len(order) != n {
		return nil, fmt.Errorf("bdd: order has %d entries, want %d", len(order), n)
	}
	m := &Manager{
		nvars:      n,
		varAtLevel: make([]int32, n),
		levelOfVar: make([]int32, n),
		names:      make([]string, n),
		unique:     make(map[uniqueKey]Node),
		cache:      make(map[cacheKey]Node),
		satCache:   make(map[Node]float64),
		protected:  make(map[Node]int),
	}
	seen := make([]bool, n)
	for lvl, v := range order {
		if v < 0 || v >= n || seen[v] {
			return nil, fmt.Errorf("bdd: order is not a permutation of 0..%d", n-1)
		}
		seen[v] = true
		m.varAtLevel[lvl] = int32(v)
		m.levelOfVar[v] = int32(lvl)
	}
	for i := 0; i < n; i++ {
		m.names[i] = fmt.Sprintf("x%d", i+1)
	}
	m.nodes = []nodeRec{
		{level: terminalLevel}, // FalseNode
		{level: terminalLevel}, // TrueNode
	}
	return m, nil
}

// NVars returns the number of variables in the manager.
func (m *Manager) NVars() int { return m.nvars }

// SetName assigns a human-readable name to variable v, used by
// formatting and the kbdd shell.
func (m *Manager) SetName(v int, name string) { m.names[v] = name }

// Name returns the name of variable v.
func (m *Manager) Name(v int) string { return m.names[v] }

// Order returns the current variable order: the variable index at each
// level, top to bottom.
func (m *Manager) Order() []int {
	out := make([]int, m.nvars)
	for lvl, v := range m.varAtLevel {
		out[lvl] = int(v)
	}
	return out
}

// False returns the constant-0 node.
func (m *Manager) False() Node { return FalseNode }

// True returns the constant-1 node.
func (m *Manager) True() Node { return TrueNode }

// Var returns the BDD of the single positive literal of variable v.
func (m *Manager) Var(v int) Node {
	if v < 0 || v >= m.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range", v))
	}
	return m.mk(m.levelOfVar[v], FalseNode, TrueNode)
}

// NVar returns the BDD of the negative literal of variable v.
func (m *Manager) NVar(v int) Node {
	if v < 0 || v >= m.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range", v))
	}
	return m.mk(m.levelOfVar[v], TrueNode, FalseNode)
}

// IsTerminal reports whether f is one of the two constant nodes.
func (m *Manager) IsTerminal(f Node) bool { return f == FalseNode || f == TrueNode }

// Level returns the order level of f's top variable (terminals return
// a level below all variables).
func (m *Manager) level(f Node) int32 { return m.nodes[f].level }

// mk finds or creates the node (level, lo, hi), applying the ROBDD
// reduction rules.
func (m *Manager) mk(level int32, lo, hi Node) Node {
	if lo == hi {
		return lo
	}
	key := uniqueKey{level, lo, hi}
	if n, ok := m.unique[key]; ok {
		return n
	}
	var n Node
	if k := len(m.freeList); k > 0 {
		n = m.freeList[k-1]
		m.freeList = m.freeList[:k-1]
		m.nodes[n] = nodeRec{level: level, lo: lo, hi: hi}
	} else {
		n = Node(len(m.nodes))
		m.nodes = append(m.nodes, nodeRec{level: level, lo: lo, hi: hi})
	}
	m.unique[key] = n
	return n
}

// Size returns the number of live (allocated, not freed) nodes in the
// manager, including the two terminals.
func (m *Manager) Size() int { return len(m.nodes) - len(m.freeList) }

// NodeCount returns the number of nodes in the DAG rooted at f,
// including terminals — the course's BDD size metric.
func (m *Manager) NodeCount(f Node) int {
	seen := map[Node]bool{}
	var walk func(Node)
	walk = func(n Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if m.nodes[n].level == terminalLevel {
			return
		}
		walk(m.nodes[n].lo)
		walk(m.nodes[n].hi)
	}
	walk(f)
	return len(seen)
}

// Protect registers f as an external root so garbage collection keeps
// it alive for the rest of the manager's life.
func (m *Manager) Protect(f Node) { m.protected[f]++ }

// GC performs mark-and-sweep garbage collection. Nodes reachable from
// the protected set (and from the extra roots given) survive; all
// other nodes are recycled and the operation caches are dropped.
// It returns the number of nodes freed.
func (m *Manager) GC(extraRoots ...Node) int {
	mark := make([]bool, len(m.nodes))
	mark[FalseNode], mark[TrueNode] = true, true
	var walk func(Node)
	walk = func(n Node) {
		if mark[n] {
			return
		}
		mark[n] = true
		if m.nodes[n].level == terminalLevel {
			return
		}
		walk(m.nodes[n].lo)
		walk(m.nodes[n].hi)
	}
	for f := range m.protected {
		walk(f)
	}
	for _, f := range extraRoots {
		walk(f)
	}
	freedBefore := len(m.freeList)
	alreadyFree := make(map[Node]bool, freedBefore)
	for _, n := range m.freeList {
		alreadyFree[n] = true
	}
	for i := 2; i < len(m.nodes); i++ {
		n := Node(i)
		if mark[n] || alreadyFree[n] {
			continue
		}
		rec := m.nodes[n]
		delete(m.unique, uniqueKey{rec.level, rec.lo, rec.hi})
		m.freeList = append(m.freeList, n)
	}
	m.cache = make(map[cacheKey]Node)
	m.satCache = make(map[Node]float64)
	return len(m.freeList) - freedBefore
}
