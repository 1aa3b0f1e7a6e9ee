package netlist

import (
	"fmt"
	"sort"

	"vlsicad/internal/bdd"
	"vlsicad/internal/cube"
	"vlsicad/internal/sat"
)

// Verification bridges: build the network's output functions as BDDs
// over its primary inputs, or encode the network into CNF — the two
// formal-verification paths the course teaches in Week 2.

// BuildBDDs constructs one BDD per primary output over a fresh manager
// whose variables are the primary inputs in declaration order. It
// returns the manager, the output nodes (keyed by output name) and the
// input variable binding.
func (nw *Network) BuildBDDs() (*bdd.Manager, map[string]bdd.Node, map[string]int, error) {
	m := bdd.New(len(nw.Inputs))
	vars := map[string]int{}
	sig := map[string]bdd.Node{}
	for i, in := range nw.Inputs {
		vars[in] = i
		m.SetName(i, in)
		sig[in] = m.Var(i)
	}
	if err := nw.LowerBDD(m, sig); err != nil {
		return nil, nil, nil, err
	}
	outs, err := outputsOf(nw, sig)
	if err != nil {
		return nil, nil, nil, err
	}
	return m, outs, vars, nil
}

// LowerBDD binds, in topological order, every node that sig does not
// already bind to the BDD of its cover over its fanins' functions in
// sig. The caller binds the primary inputs; a node it binds is a cut
// point whose own cover is not read.
func (nw *Network) LowerBDD(m *bdd.Manager, sig map[string]bdd.Node) error {
	order, err := nw.TopoSort()
	if err != nil {
		return err
	}
	for _, n := range order {
		if _, ok := sig[n.Name]; ok {
			continue
		}
		in := make([]bdd.Node, len(n.Fanins))
		for i, name := range n.Fanins {
			g, ok := sig[name]
			if !ok {
				return fmt.Errorf("netlist: node %s reads unknown signal %s", n.Name, name)
			}
			in[i] = g
		}
		f := m.False()
		for _, c := range n.Cover.Cubes {
			f = m.Or(f, bdd.Product(m, c, in))
		}
		sig[n.Name] = f
	}
	return nil
}

// EquivalentBDD checks functional equivalence of two networks with
// identical input/output name sets by canonical BDD comparison: b is
// built in a's manager over a's input variables.
func EquivalentBDD(a, b *Network) (bool, error) {
	if err := SameInterface(a, b); err != nil {
		return false, err
	}
	m, outsA, vars, err := a.BuildBDDs()
	if err != nil {
		return false, err
	}
	sig := map[string]bdd.Node{}
	for in, v := range vars {
		sig[in] = m.Var(v)
	}
	if err := b.LowerBDD(m, sig); err != nil {
		return false, err
	}
	for _, o := range a.Outputs {
		if outsA[o] != sig[o] {
			return false, nil
		}
	}
	return true, nil
}

// ToCNF encodes the network into the given Tseitin encoder, returning
// literals for every primary input and output.
func (nw *Network) ToCNF(e *sat.Enc) (ins map[string]sat.Lit, outs map[string]sat.Lit, err error) {
	sig := map[string]sat.Lit{}
	ins = map[string]sat.Lit{}
	for _, in := range nw.Inputs {
		l := e.Input()
		sig[in] = l
		ins[in] = l
	}
	if err := nw.lowerCNF(e, sig); err != nil {
		return nil, nil, err
	}
	outs, err = outputsOf(nw, sig)
	if err != nil {
		return nil, nil, err
	}
	return ins, outs, nil
}

// lowerCNF Tseitin-encodes every node in topological order over the
// literals its fanins have in sig, which must bind the primary inputs.
func (nw *Network) lowerCNF(e *sat.Enc, sig map[string]sat.Lit) error {
	order, err := nw.TopoSort()
	if err != nil {
		return err
	}
	for _, n := range order {
		var terms []sat.Lit
		for _, c := range n.Cover.Cubes {
			var lits []sat.Lit
			void := false
			for i, l := range c {
				fl, ok := sig[n.Fanins[i]]
				if !ok {
					return fmt.Errorf("netlist: node %s reads unknown signal %s", n.Name, n.Fanins[i])
				}
				switch l {
				case cube.Pos:
					lits = append(lits, fl)
				case cube.Neg:
					lits = append(lits, fl.Neg())
				case cube.Void:
					void = true
				}
			}
			if void {
				continue
			}
			terms = append(terms, e.AndN(lits...))
		}
		sig[n.Name] = e.OrN(terms...)
	}
	return nil
}

// EquivalentSAT checks functional equivalence of two networks with a
// shared-input miter and a CDCL solve. When the networks differ it
// also returns a distinguishing input assignment.
func EquivalentSAT(a, b *Network) (bool, map[string]bool, error) {
	if err := SameInterface(a, b); err != nil {
		return false, nil, err
	}
	e := sat.NewEnc()
	insA, outsA, err := a.ToCNF(e)
	if err != nil {
		return false, nil, err
	}
	// Encode b over the same input literals.
	sig := map[string]sat.Lit{}
	for name, l := range insA {
		sig[name] = l
	}
	if err := b.lowerCNF(e, sig); err != nil {
		return false, nil, err
	}
	var mA, mB []sat.Lit
	var outNames []string
	outNames = append(outNames, a.Outputs...)
	sort.Strings(outNames)
	for _, o := range outNames {
		mA = append(mA, outsA[o])
		mB = append(mB, sig[o])
	}
	e.Miter(mA, mB)
	switch e.S.Solve() {
	case sat.Unsat:
		return true, nil, nil
	case sat.Sat:
		model := e.S.Model()
		witness := map[string]bool{}
		for name, l := range insA {
			witness[name] = e.Value(model, l)
		}
		return false, witness, nil
	default:
		return false, nil, fmt.Errorf("netlist: SAT solver gave up")
	}
}

// outputsOf picks the primary outputs' entries out of a lowered
// network's signal map.
func outputsOf[T any](nw *Network, sig map[string]T) (map[string]T, error) {
	outs := map[string]T{}
	for _, o := range nw.Outputs {
		f, ok := sig[o]
		if !ok {
			return nil, fmt.Errorf("netlist: output %s undriven", o)
		}
		outs[o] = f
	}
	return outs, nil
}

// SameInterface returns an error unless a and b have the same primary
// input names and the same primary output names, in any order.
func SameInterface(a, b *Network) error {
	if len(a.Inputs) != len(b.Inputs) || len(a.Outputs) != len(b.Outputs) {
		return fmt.Errorf("netlist: interface mismatch: %d/%d inputs, %d/%d outputs",
			len(a.Inputs), len(b.Inputs), len(a.Outputs), len(b.Outputs))
	}
	as, bs := append([]string(nil), a.Inputs...), append([]string(nil), b.Inputs...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return fmt.Errorf("netlist: input sets differ: %s vs %s", as[i], bs[i])
		}
	}
	ao, bo := append([]string(nil), a.Outputs...), append([]string(nil), b.Outputs...)
	sort.Strings(ao)
	sort.Strings(bo)
	for i := range ao {
		if ao[i] != bo[i] {
			return fmt.Errorf("netlist: output sets differ: %s vs %s", ao[i], bo[i])
		}
	}
	return nil
}
