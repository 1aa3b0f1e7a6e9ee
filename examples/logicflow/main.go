// Logicflow walks the front-end thread of the course (Weeks 1-5) on a
// small controller: two-level minimization with espresso, multi-level
// restructuring with kernels and factoring, technology mapping, and —
// at every step — formal verification with both BDDs and SAT.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"vlsicad/internal/cube"
	"vlsicad/internal/espresso"
	"vlsicad/internal/mls"
	"vlsicad/internal/netlist"
	"vlsicad/internal/techmap"
)

const controller = `
.model ctl
.inputs req0 req1 busy mode
.outputs grant0 grant1 stall
.names req0 busy mode grant0
100 1
101 1
110 1
.names req1 req0 busy grant1
10- 1
1-0 1
.names req0 req1 busy stall
111 1
-11 1
1-1 1
.end
`

func main() {
	nw, err := netlist.ParseBLIF(strings.NewReader(controller))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Week 3: two-level minimization (espresso) per node")
	names := make([]string, 0, len(nw.Nodes))
	for name := range nw.Nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		node := nw.Nodes[name]
		min, st := espresso.Minimize(node.Cover, nil)
		fmt.Printf("  %-8s %d -> %d cubes, %d -> %d literals\n",
			name, st.InitialCubes, st.FinalCubes, st.InitialLits, st.FinalLits)
		if !cube.Equal(node.Cover, min) {
			log.Fatalf("espresso changed %s!", name)
		}
		node.Cover = min
	}

	fmt.Println("Week 4: multi-level restructuring (kernels + factoring)")
	before := nw.Clone()
	st := mls.NetworkStats(nw)
	fmt.Printf("  before: %d nodes, %d SOP literals, %d factored\n",
		st.Nodes, st.SOPLits, st.FactoredLits)
	mls.ExtractKernels(nw, "k", 10)
	mls.Simplify(nw)
	st = mls.NetworkStats(nw)
	fmt.Printf("  after : %d nodes, %d SOP literals, %d factored\n",
		st.Nodes, st.SOPLits, st.FactoredLits)

	fmt.Println("Week 2: formal verification of the restructuring")
	eqBDD, err := netlist.EquivalentBDD(before, nw)
	if err != nil {
		log.Fatal(err)
	}
	eqSAT, witness, err := netlist.EquivalentSAT(before, nw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  BDD says equivalent: %v; SAT says equivalent: %v (witness %v)\n",
		eqBDD, eqSAT, witness)
	if !eqBDD || !eqSAT {
		log.Fatal("synthesis bug!")
	}

	fmt.Println("Week 5: technology mapping (area vs delay objective)")
	subj, err := techmap.FromNetwork(nw)
	if err != nil {
		log.Fatal(err)
	}
	area, err := techmap.Map(subj, techmap.StandardLibrary(), techmap.MinArea)
	if err != nil {
		log.Fatal(err)
	}
	delay, err := techmap.Map(subj, techmap.StandardLibrary(), techmap.MinDelay)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  min-area : %d gates, area %.1f, delay %.2f\n",
		len(area.Matches), area.Area, area.Delay)
	fmt.Printf("  min-delay: %d gates, area %.1f, delay %.2f\n",
		len(delay.Matches), delay.Area, delay.Delay)
}
