// Package repair implements software Project 2 of the course:
// BDD-based formal logic network repair. Given an implementation
// network that differs from its specification because one node's
// function is wrong, the repair engine computes — with BDDs and
// universal quantification, exactly as the course formulates it —
// whether a replacement function over that node's existing fanins can
// make the network correct, and produces a minimized replacement
// cover.
package repair

import (
	"fmt"

	"vlsicad/internal/bdd"
	"vlsicad/internal/cube"
	"vlsicad/internal/espresso"
	"vlsicad/internal/netlist"
)

// MaxFanins bounds the suspect node's fanin count (the local function
// table is enumerated).
const MaxFanins = 12

// Result reports a repair attempt.
type Result struct {
	Repaired bool
	// NewCover is the minimized replacement function over the suspect
	// node's fanins (valid when Repaired).
	NewCover *cube.Cover
	// OnPatterns / DCPatterns count local fanin patterns forced to 1
	// and left free, respectively.
	OnPatterns, DCPatterns int
}

// Repair computes a replacement function for the suspect node of impl
// so that impl becomes equivalent to spec. Both networks must share
// the same primary inputs and outputs. The repaired function is
// expressed over the suspect node's existing fanins.
func Repair(impl, spec *netlist.Network, suspect string) (*Result, error) {
	node, ok := impl.Nodes[suspect]
	if !ok {
		return nil, fmt.Errorf("repair: no node %q in implementation", suspect)
	}
	k := len(node.Fanins)
	if k > MaxFanins {
		return nil, fmt.Errorf("repair: node %q has %d fanins (max %d)", suspect, k, MaxFanins)
	}
	if err := netlist.SameInterface(impl, spec); err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}

	// Manager over the primary inputs plus one extra variable t that
	// stands for the suspect node's output, which cuts impl there.
	nPI := len(impl.Inputs)
	m := bdd.New(nPI + 1)
	tVar := nPI
	m.SetName(tVar, "$t")
	implSig := map[string]bdd.Node{suspect: m.Var(tVar)}
	specSig := map[string]bdd.Node{}
	for i, in := range impl.Inputs {
		m.SetName(i, in)
		implSig[in] = m.Var(i)
		specSig[in] = m.Var(i)
	}
	if err := impl.LowerBDD(m, implSig); err != nil {
		return nil, err
	}
	if err := spec.LowerBDD(m, specSig); err != nil {
		return nil, err
	}

	// Miter M(x, t): all outputs agree.
	miter := m.True()
	for _, o := range impl.Outputs {
		so, ok := specSig[o]
		if !ok {
			return nil, fmt.Errorf("repair: spec lacks output %q", o)
		}
		miter = m.And(miter, m.Xnor(implSig[o], so))
	}
	// A1(x): setting the suspect output to 1 keeps the miter true.
	a1 := m.Restrict(miter, tVar, true)
	a0 := m.Restrict(miter, tVar, false)

	// The fanin functions yi(x): no fanin's cone contains the suspect
	// (the network is acyclic), so the cut does not change them.
	fanin := make([]bdd.Node, k)
	for i, f := range node.Fanins {
		fanin[i] = implSig[f]
	}

	// For each local pattern p decide: must-1, must-0, free, or
	// infeasible (no repair over these fanins).
	on := cube.NewCover(k)
	dc := cube.NewCover(k)
	res := &Result{}
	for p := uint(0); p < 1<<uint(k); p++ {
		pc := cube.Minterm(k, p)
		cond := bdd.Product(m, pc, fanin)
		if cond == m.False() {
			// Unreachable pattern: free.
			dc.Add(pc)
			res.DCPatterns++
			continue
		}
		canBe1 := m.And(cond, m.Not(a1)) == m.False()
		canBe0 := m.And(cond, m.Not(a0)) == m.False()
		switch {
		case canBe1 && canBe0:
			dc.Add(pc)
			res.DCPatterns++
		case canBe1:
			on.Add(pc)
			res.OnPatterns++
		case canBe0:
			// off-set: not added to on or dc
		default:
			// Some inputs force 1 and others force 0 for the same
			// local pattern: unrepairable at this node.
			return res, nil
		}
	}
	min, _ := espresso.Minimize(on, dc)
	res.Repaired = true
	res.NewCover = min
	return res, nil
}

// Apply installs the repair into the implementation network.
func Apply(impl *netlist.Network, suspect string, res *Result) error {
	if !res.Repaired || res.NewCover == nil {
		return fmt.Errorf("repair: nothing to apply")
	}
	node, ok := impl.Nodes[suspect]
	if !ok {
		return fmt.Errorf("repair: no node %q", suspect)
	}
	if res.NewCover.N != len(node.Fanins) {
		return fmt.Errorf("repair: cover width %d != %d fanins", res.NewCover.N, len(node.Fanins))
	}
	node.Cover = res.NewCover.Clone()
	return nil
}

// InjectFault replaces the named node's cover with a mutated version
// (complement of the original), producing a faulty network for
// experiments and the project's auto-grader fixtures.
func InjectFault(nw *netlist.Network, name string) error {
	node, ok := nw.Nodes[name]
	if !ok {
		return fmt.Errorf("repair: no node %q", name)
	}
	node.Cover = node.Cover.Complement()
	return nil
}
