package mls

import (
	"testing"

	"vlsicad/internal/bench"
	"vlsicad/internal/netlist"
)

// BenchmarkExtractKernels runs the flow's fx step (10 rounds) on one
// design of each flow size: 16 inputs and 40, 50 and 60 nodes. Each
// op extracts from fresh clones, so every op does the same work.
func BenchmarkExtractKernels(b *testing.B) {
	var designs []*netlist.Network
	for i, nodes := range []int{40, 50, 60} {
		designs = append(designs, bench.Network(bench.NetworkSpec{
			Name: "b", Inputs: 16, Nodes: nodes, Outputs: 8,
		}, int64(i+1)))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, d := range designs {
			ExtractKernels(d.Clone(), "fx_", 10)
		}
	}
}
