// Package atpg implements automatic test-pattern generation for
// single stuck-at faults — "test" was among the most-requested topics
// of the paper's Figure 11 survey and part of the traditional course
// the MOOC had to omit. Generation is SAT-based: the good and faulty
// circuits share inputs in a miter, and any satisfying assignment is a
// test vector; an unsatisfiable miter proves the fault redundant.
package atpg

import (
	"fmt"
	"sort"

	"vlsicad/internal/cube"
	"vlsicad/internal/netlist"
)

// Fault is a single stuck-at fault on a named signal.
type Fault struct {
	Signal  string
	StuckAt bool // true = stuck-at-1
}

func (f Fault) String() string {
	v := 0
	if f.StuckAt {
		v = 1
	}
	return fmt.Sprintf("%s/sa%d", f.Signal, v)
}

// Faults enumerates both stuck-at faults on every signal (primary
// inputs and node outputs), sorted for determinism.
func Faults(nw *netlist.Network) []Fault {
	var sigs []string
	sigs = append(sigs, nw.Inputs...)
	for name := range nw.Nodes {
		sigs = append(sigs, name)
	}
	sort.Strings(sigs)
	out := make([]Fault, 0, 2*len(sigs))
	for _, s := range sigs {
		out = append(out, Fault{s, false}, Fault{s, true})
	}
	return out
}

// InjectStuckAt returns a copy of the network in which the faulty
// signal's consumers (and, if it is an output, the output itself) see
// a constant. The interface (inputs/outputs) is unchanged.
func InjectStuckAt(nw *netlist.Network, f Fault) *netlist.Network {
	faulty := nw.Clone()
	constName := f.Signal + "__flt"
	for faulty.Nodes[constName] != nil || faulty.IsInput(constName) {
		constName += "_"
	}
	var cov *cube.Cover
	if f.StuckAt {
		cov = cube.Universal(0)
	} else {
		cov = cube.NewCover(0)
	}
	faulty.AddNode(constName, nil, cov)
	// Rewire consumers.
	for _, n := range faulty.Nodes {
		if n.Name == constName {
			continue
		}
		for i, fin := range n.Fanins {
			if fin == f.Signal {
				n.Fanins[i] = constName
			}
		}
	}
	// If the signal itself is a primary output, the fault is observed
	// directly: replace the driver (or shadow the input) with the
	// constant under the same name. For node signals we can overwrite
	// the node; for a faulty PO that is a PI we rename via a buffer.
	if faulty.IsOutput(f.Signal) {
		if _, isNode := faulty.Nodes[f.Signal]; isNode || faulty.IsInput(f.Signal) {
			if faulty.IsInput(f.Signal) {
				// A PI that is also a PO: we cannot redefine the PI;
				// leave direct observation out (rare teaching case).
			} else {
				faulty.AddNode(f.Signal, []string{constName}, bufferCover())
			}
		}
	}
	faulty.Sweep()
	return faulty
}

func bufferCover() *cube.Cover {
	c := cube.NewCover(1)
	cc := cube.NewCube(1)
	cc[0] = cube.Pos
	c.Add(cc)
	return c
}

// Test is a generated pattern with its target fault.
type Test struct {
	Fault  Fault
	Vector map[string]bool
}

// Generate produces a test vector detecting the fault, or reports the
// fault redundant (detectable=false) when no vector exists.
func Generate(nw *netlist.Network, f Fault) (vec map[string]bool, detectable bool, err error) {
	faulty := InjectStuckAt(nw, f)
	eq, witness, err := netlist.EquivalentSAT(nw, faulty)
	if err != nil {
		return nil, false, err
	}
	if eq {
		return nil, false, nil // redundant fault
	}
	return witness, true, nil
}

// Detects reports whether the vector distinguishes the good network
// from the faulty one (serial fault simulation for one pattern).
func Detects(nw *netlist.Network, f Fault, vec map[string]bool) (bool, error) {
	faulty := InjectStuckAt(nw, f)
	good, err := nw.Eval(vec)
	if err != nil {
		return false, err
	}
	bad, err := faulty.Eval(vec)
	if err != nil {
		return false, err
	}
	for _, o := range nw.Outputs {
		if good[o] != bad[o] {
			return true, nil
		}
	}
	return false, nil
}

// Result summarizes a full ATPG run.
type Result struct {
	Total     int
	Detected  int
	Redundant int
	Tests     []Test // one per productive vector (after fault dropping)
}

// Coverage is detected / (total - redundant); redundant faults are
// untestable by definition.
func (r *Result) Coverage() float64 {
	testable := r.Total - r.Redundant
	if testable == 0 {
		return 1
	}
	return float64(r.Detected) / float64(testable)
}

// Run generates a compact test set for all stuck-at faults using the
// standard loop: pick an undetected fault, generate a vector with SAT,
// then fault-drop — simulate the vector against every remaining fault
// and mark all it detects.
func Run(nw *netlist.Network) (*Result, error) {
	faults := Faults(nw)
	res := &Result{Total: len(faults)}
	detected := make([]bool, len(faults))
	redundant := make([]bool, len(faults))
	for i, f := range faults {
		if detected[i] || redundant[i] {
			continue
		}
		vec, ok, err := Generate(nw, f)
		if err != nil {
			return nil, err
		}
		if !ok {
			redundant[i] = true
			res.Redundant++
			continue
		}
		res.Tests = append(res.Tests, Test{Fault: f, Vector: vec})
		// Fault dropping.
		for j := i; j < len(faults); j++ {
			if detected[j] || redundant[j] {
				continue
			}
			hit, err := Detects(nw, faults[j], vec)
			if err != nil {
				return nil, err
			}
			if hit {
				detected[j] = true
				res.Detected++
			}
		}
	}
	return res, nil
}
