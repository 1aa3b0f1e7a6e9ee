package xcheck

import (
	"fmt"
	"strings"

	"vlsicad/internal/cube"
	"vlsicad/internal/netlist"
)

// NetInstance is a combinational-network test case: a random BLIF-style
// network, the node chosen for fault injection, and an ordered node
// list (Network.Nodes is a map; the order makes dumps deterministic).
type NetInstance struct {
	Seed    uint64
	Net     *netlist.Network
	Order   []string // node creation order
	Suspect string   // node whose cover the fault complements
}

// Domain implements Instance.
func (ni *NetInstance) Domain() string { return "net" }

// InstanceSeed implements Instance.
func (ni *NetInstance) InstanceSeed() uint64 { return ni.Seed }

// Dump implements Instance.
func (ni *NetInstance) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "xcheck net v1\nseed %d\ninputs %s\noutputs %s\nsuspect %s\n",
		ni.Seed, strings.Join(ni.Net.Inputs, " "), strings.Join(ni.Net.Outputs, " "), ni.Suspect)
	for _, name := range ni.Order {
		n := ni.Net.Nodes[name]
		fmt.Fprintf(&b, "node %s <- %s\n", name, strings.Join(n.Fanins, " "))
		for _, c := range n.Cover.Cubes {
			fmt.Fprintf(&b, "  %s\n", c.Row())
		}
	}
	return b.String()
}

// GenNet generates a random combinational network: 2..4 primary
// inputs, 2..6 internal nodes each computing a nonempty random cover
// over 1..3 earlier signals, with the last node (plus occasionally an
// intermediate one) as primary outputs. The suspect is drawn from the
// internal nodes.
func GenNet(seed uint64) *NetInstance {
	rng := NewRNG(seed)
	nPI := rng.Range(2, 4)
	nNodes := rng.Range(2, 6)
	nw := netlist.New(fmt.Sprintf("xcheck-%d", seed))
	var signals []string
	for i := 0; i < nPI; i++ {
		name := fmt.Sprintf("i%d", i)
		nw.AddInput(name)
		signals = append(signals, name)
	}
	inst := &NetInstance{Seed: seed, Net: nw}
	for i := 0; i < nNodes; i++ {
		k := rng.Range(1, 3)
		if k > len(signals) {
			k = len(signals)
		}
		perm := rng.Perm(len(signals))
		fanins := make([]string, k)
		for j := 0; j < k; j++ {
			fanins[j] = signals[perm[j]]
		}
		cov := cube.NewCover(k)
		for len(cov.Cubes) == 0 {
			for j := 0; j < rng.Range(1, 3); j++ {
				cov.Add(randCube(rng, k, 3))
			}
		}
		name := fmt.Sprintf("n%02d", i)
		nw.AddNode(name, fanins, cov)
		signals = append(signals, name)
		inst.Order = append(inst.Order, name)
	}
	nw.AddOutput(inst.Order[len(inst.Order)-1])
	if len(inst.Order) > 1 && rng.Bool() {
		extra := inst.Order[rng.Intn(len(inst.Order)-1)]
		if !nw.IsOutput(extra) {
			nw.AddOutput(extra)
		}
	}
	inst.Suspect = inst.Order[rng.Intn(len(inst.Order))]
	return inst
}

// evalExhaustive computes the network's output vector on every input
// assignment via netlist.Eval — the simulation-level reference.
func evalExhaustive(nw *netlist.Network) ([][]bool, error) {
	nPI := len(nw.Inputs)
	var table [][]bool
	for mt := 0; mt < 1<<uint(nPI); mt++ {
		in := map[string]bool{}
		for i, name := range nw.Inputs {
			in[name] = mt&(1<<uint(i)) != 0
		}
		sigs, err := nw.Eval(in)
		if err != nil {
			return nil, err
		}
		row := make([]bool, len(nw.Outputs))
		for oi, o := range nw.Outputs {
			row[oi] = sigs[o]
		}
		table = append(table, row)
	}
	return table, nil
}

// CheckNet cross-validates the verification stack on one instance:
//
//	netlist.EquivalentBDD   vs  netlist.EquivalentSAT   (same verdict)
//	both                    vs  exhaustive simulation   (≤ 4 inputs)
//	self equivalence        (a network equals its clone)
//
// run on the network against a fault-injected mutant (the suspect
// node's cover complemented), which may or may not be observable.
func (c *Checker) CheckNet(ni *NetInstance) []Mismatch {
	var out []Mismatch
	bad := func(format string, args ...interface{}) {
		out = append(out, Mismatch{Domain: "net", Seed: ni.Seed,
			Detail: fmt.Sprintf(format, args...), Dump: ni.Dump()})
	}

	nw := ni.Net
	// Self equivalence: every checker must accept a clone.
	clone := nw.Clone()
	if eq, err := netlist.EquivalentBDD(nw, clone); err != nil || !eq {
		bad("EquivalentBDD rejects a clone (eq=%v err=%v)", eq, err)
	}
	if eq, _, err := netlist.EquivalentSAT(nw, clone); err != nil || !eq {
		bad("EquivalentSAT rejects a clone (eq=%v err=%v)", eq, err)
	}

	// Fault the suspect node and compare all three equivalence views.
	faulty := nw.Clone()
	faulty.Nodes[ni.Suspect].Cover = faulty.Nodes[ni.Suspect].Cover.Complement()
	bddEq, err := netlist.EquivalentBDD(nw, faulty)
	if err != nil {
		bad("EquivalentBDD failed on the faulty network: %v", err)
		c.note("net", ni.Seed, out)
		return out
	}
	satEq, cex, err := netlist.EquivalentSAT(nw, faulty)
	if err != nil {
		bad("EquivalentSAT failed on the faulty network: %v", err)
		c.note("net", ni.Seed, out)
		return out
	}
	if bddEq != satEq {
		bad("EquivalentBDD=%v but EquivalentSAT=%v on the faulty network", bddEq, satEq)
	}
	if !satEq && cex != nil {
		// The SAT counterexample must actually distinguish the nets.
		a, errA := nw.Eval(cex)
		b, errB := faulty.Eval(cex)
		if errA != nil || errB != nil {
			bad("counterexample evaluation failed: %v / %v", errA, errB)
		} else {
			differs := false
			for _, o := range nw.Outputs {
				if a[o] != b[o] {
					differs = true
					break
				}
			}
			if !differs {
				bad("EquivalentSAT counterexample does not distinguish the networks")
			}
		}
	}

	// Exhaustive simulation is the ground truth for ≤ 4 inputs.
	ta, errA := evalExhaustive(nw)
	tb, errB := evalExhaustive(faulty)
	if errA != nil || errB != nil {
		bad("exhaustive evaluation failed: %v / %v", errA, errB)
	} else {
		simEq := true
		for i := range ta {
			for j := range ta[i] {
				if ta[i][j] != tb[i][j] {
					simEq = false
				}
			}
		}
		if simEq != bddEq {
			bad("exhaustive simulation says eq=%v but EquivalentBDD says %v", simEq, bddEq)
		}
	}

	c.note("net", ni.Seed, out)
	return out
}
