package mls

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"vlsicad/internal/bench"
	"vlsicad/internal/netlist"
)

// FuzzExtractKernels checks ExtractKernels and Resubstitute against
// reference copies of their per-pair loops, which lift every node's
// cover again for each pair and divide every pair: on the same
// generated network both must write byte-identical BLIF, and the
// result must stay equivalent to the source. The seeds are the shapes
// the flow (16 inputs, 40/50/60 nodes) and the portal's sis homework
// (8 inputs, 50 nodes) synthesize, so plain `go test` replays them;
// seed 6 gives each shape resubstitutions before and after extraction.
func FuzzExtractKernels(f *testing.F) {
	for _, s := range []struct{ inputs, nodes int }{{16, 40}, {16, 50}, {16, 60}, {8, 50}} {
		for _, seed := range []int64{1, 2, 6} {
			f.Add(seed, uint8(s.inputs-2), uint8(s.nodes-1))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, inputs, nodes uint8) {
		in := 2 + int(inputs)%15
		src := bench.Network(bench.NetworkSpec{
			Name: "fz", Inputs: in, Nodes: 1 + int(nodes)%60, Outputs: in / 2,
		}, seed)

		got, want := src.Clone(), src.Clone()
		n, wantN := ExtractKernels(got, "fx_", 10), refExtractKernels(want, "fx_", 10)
		sameNetwork(t, "fx", n, wantN, got, want)
		checkEquiv(t, src, got, "fx")

		// Resubstitute both the source and the extracted network.
		for _, nw := range []*netlist.Network{src, got} {
			got, want := nw.Clone(), nw.Clone()
			n, wantN := Resubstitute(got), refResubstitute(want)
			sameNetwork(t, "resub", n, wantN, got, want)
			checkEquiv(t, src, got, "resub")
		}
	})
}

// sameNetwork fails unless the counts agree and both networks write
// the same BLIF.
func sameNetwork(t *testing.T, what string, n, wantN int, got, want *netlist.Network) {
	t.Helper()
	var g, w bytes.Buffer
	if err := netlist.WriteBLIF(&g, got); err != nil {
		t.Fatal(err)
	}
	if err := netlist.WriteBLIF(&w, want); err != nil {
		t.Fatal(err)
	}
	if n != wantN || !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("%s: %d rewrites, reference %d; BLIF\n%s\nreference BLIF\n%s", what, n, wantN, g.String(), w.String())
	}
}

// refExtractKernels is ExtractKernels with per-pair cover lifting and
// no support filter.
func refExtractKernels(nw *netlist.Network, prefix string, maxIter int) int {
	created := 0
	for iter := 0; iter < maxIter; iter++ {
		st := newSymtab(nw)
		type cand struct {
			key   string
			k     ACover
			saved int
		}
		kernelSet := map[string]ACover{}
		var names []string
		for name := range nw.Nodes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ac := st.nodeACover(nw.Nodes[name])
			if len(ac) > 30 {
				continue
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
			saved := -k.Lits()
			for _, name := range names {
				ac := st.nodeACover(nw.Nodes[name])
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
				best = &cand{key: key, k: k, saved: saved}
			}
		}
		if best == nil || best.saved <= 0 {
			return created
		}
		newName := fmt.Sprintf("%s%d", prefix, created)
		for nw.Nodes[newName] != nil || nw.IsInput(newName) {
			newName += "_"
		}
		st.setNodeFromACover(nw, newName, best.k)
		tLit := st.lit(newName, false)
		for _, name := range names {
			ac := st.nodeACover(nw.Nodes[name])
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
			st.setNodeFromACover(nw, name, rewritten.normalize())
		}
		created++
	}
	return created
}

// refResubstitute is Resubstitute with per-pair cover lifting and no
// support filter.
func refResubstitute(nw *netlist.Network) int {
	rewrites := 0
	for {
		st := newSymtab(nw)
		var names []string
		for name := range nw.Nodes {
			names = append(names, name)
		}
		sort.Strings(names)
		type rewrite struct {
			target string
			cover  ACover
			saved  int
		}
		var best *rewrite
		reach := reachability(nw)
		for _, fname := range names {
			f := st.nodeACover(nw.Nodes[fname])
			if len(f) < 2 {
				continue
			}
			for _, gname := range names {
				if fname == gname || reach[gname][fname] {
					continue
				}
				g := st.nodeACover(nw.Nodes[gname])
				if len(g) == 0 || g.Lits() == 0 {
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
