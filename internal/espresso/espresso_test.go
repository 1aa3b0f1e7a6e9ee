package espresso

import (
	"math/rand"
	"strings"
	"testing"

	"vlsicad/internal/cube"
)

func cover(t *testing.T, rows ...string) *cube.Cover {
	t.Helper()
	f, err := cube.ParseCover(rows)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMinimizeMergesAdjacent(t *testing.T) {
	// ab + ab' = a.
	on := cover(t, "11", "10")
	min, st := Minimize(on, nil)
	if len(min.Cubes) != 1 || min.Cubes[0].Literals() != 1 {
		t.Errorf("minimized = %v, want single cube a", min)
	}
	if !Verify(min, on, nil) {
		t.Error("Verify failed")
	}
	if st.FinalCubes != 1 || st.InitialCubes != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMinimizeTautology(t *testing.T) {
	on := cover(t, "1-", "0-")
	min, _ := Minimize(on, nil)
	if len(min.Cubes) != 1 || !min.Cubes[0].IsUniversal() {
		t.Errorf("x + x' should minimize to 1, got %v", min)
	}
}

func TestMinimizeWithDontCares(t *testing.T) {
	// on = a'b'c', dc = a'b'c: together they merge to a'b'.
	on := cover(t, "000")
	dc := cover(t, "001")
	min, _ := Minimize(on, dc)
	if len(min.Cubes) != 1 || min.Cubes[0].Literals() != 2 {
		t.Errorf("expected a'b' (2 literals), got %v", min)
	}
	if !Verify(min, on, dc) {
		t.Error("Verify failed")
	}
}

func TestMinimizeEmptyAndUniversal(t *testing.T) {
	empty := cube.NewCover(3)
	min, st := Minimize(empty, nil)
	if !min.IsEmpty() || st.FinalCubes != 0 {
		t.Error("empty on-set should stay empty")
	}
	u := cube.Universal(2)
	min2, _ := Minimize(u, nil)
	if len(min2.Cubes) != 1 || !min2.Cubes[0].IsUniversal() {
		t.Error("universal should stay universal")
	}
}

func TestMinimizeIsIrredundant(t *testing.T) {
	// Classic redundant cover: ab + a'c + bc; bc is the consensus and
	// is redundant.
	on := cover(t, "11-", "0-1", "-11")
	min, _ := Minimize(on, nil)
	if len(min.Cubes) > 2 {
		t.Errorf("expected 2 cubes after removing consensus, got %v", min)
	}
	if !cube.Equal(min, on) {
		t.Error("function changed")
	}
}

func TestPropertyMinimizePreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 120; iter++ {
		n := 2 + rng.Intn(4)
		on := cube.NewCover(n)
		for k := 0; k < 1+rng.Intn(6); k++ {
			c := cube.NewCube(n)
			for v := 0; v < n; v++ {
				switch rng.Intn(3) {
				case 0:
					c[v] = cube.Pos
				case 1:
					c[v] = cube.Neg
				}
			}
			on.Add(c)
		}
		var dc *cube.Cover
		if rng.Intn(2) == 0 {
			dc = cube.NewCover(n)
			c := cube.NewCube(n)
			for v := 0; v < n; v++ {
				switch rng.Intn(3) {
				case 0:
					c[v] = cube.Pos
				case 1:
					c[v] = cube.Neg
				}
			}
			dc.Add(c)
		}
		min, st := Minimize(on, dc)
		if !Verify(min, on, dc) {
			t.Fatalf("iter %d: contract violated\non=%v\ndc=%v\nmin=%v", iter, on, dc, min)
		}
		if st.FinalCubes > st.InitialCubes {
			t.Fatalf("iter %d: cube count grew %d -> %d", iter, st.InitialCubes, st.FinalCubes)
		}
	}
}

func TestExactSimple(t *testing.T) {
	// Full adder sum: 4 minterms, no merging possible → 4 cubes.
	on := cube.FromMinterms(3, []uint{1, 2, 4, 7})
	min, err := MinimizeExact(on, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Cubes) != 4 {
		t.Errorf("XOR3 exact = %d cubes, want 4", len(min.Cubes))
	}
	if !cube.Equal(min, on) {
		t.Error("function changed")
	}
}

func TestExactMerges(t *testing.T) {
	// f = m(0,1,2,3) over 2 vars = 1.
	on := cube.FromMinterms(2, []uint{0, 1, 2, 3})
	min, err := MinimizeExact(on, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Cubes) != 1 || !min.Cubes[0].IsUniversal() {
		t.Errorf("exact should find tautology, got %v", min)
	}
}

func TestExactWithDC(t *testing.T) {
	// The classic 7-segment style example: dc expands coverage.
	on := cube.FromMinterms(3, []uint{0})
	dc := cube.FromMinterms(3, []uint{1, 2, 3, 4, 5, 6, 7})
	min, err := MinimizeExact(on, dc)
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Cubes) != 1 || !min.Cubes[0].IsUniversal() {
		t.Errorf("with full dc, exact should pick 1, got %v", min)
	}
}

func TestExactEmpty(t *testing.T) {
	min, err := MinimizeExact(cube.NewCover(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !min.IsEmpty() {
		t.Error("empty on-set should give empty cover")
	}
	if _, err := MinimizeExact(cube.NewCover(20), nil); err == nil {
		t.Error("should refuse 20 variables")
	}
}

func TestHeuristicMatchesExactOnSmallFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	worse := 0
	for iter := 0; iter < 60; iter++ {
		n := 2 + rng.Intn(3)
		var mins []uint
		for m := uint(0); m < 1<<uint(n); m++ {
			if rng.Intn(2) == 0 {
				mins = append(mins, m)
			}
		}
		if len(mins) == 0 {
			continue
		}
		on := cube.FromMinterms(n, mins)
		heur, _ := Minimize(on, nil)
		exact, err := MinimizeExact(on, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !cube.Equal(heur, exact) {
			t.Fatalf("iter %d: heuristic and exact disagree functionally", iter)
		}
		if len(heur.Cubes) < len(exact.Cubes) {
			t.Fatalf("iter %d: heuristic (%d) beat exact (%d): exact not minimal",
				iter, len(heur.Cubes), len(exact.Cubes))
		}
		if len(heur.Cubes) > len(exact.Cubes) {
			worse++
		}
	}
	// The heuristic should be near-exact on tiny functions.
	if worse > 10 {
		t.Errorf("heuristic worse than exact on %d/60 tiny cases", worse)
	}
}

func TestQMPrimesMatchIteratedConsensus(t *testing.T) {
	// Two independent prime generators (QM merging here, iterated
	// consensus in the cube package) must produce identical prime sets.
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 40; iter++ {
		n := 2 + rng.Intn(3)
		var mins []uint
		for m := uint(0); m < 1<<uint(n); m++ {
			if rng.Intn(2) == 0 {
				mins = append(mins, m)
			}
		}
		if len(mins) == 0 {
			continue
		}
		on := cube.FromMinterms(n, mins)
		care := map[uint]bool{}
		for _, m := range mins {
			care[m] = true
		}
		qm := generatePrimes(n, care)
		ic := on.Primes()
		if len(qm) != len(ic.Cubes) {
			t.Fatalf("iter %d: QM %d primes, consensus %d\nf=%v", iter, len(qm), len(ic.Cubes), on)
		}
		for _, p := range qm {
			found := false
			for _, q := range ic.Cubes {
				if p.Contains(q) && q.Contains(p) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("iter %d: QM prime %v missing from consensus set", iter, p)
			}
		}
	}
}

const plaText = `# full adder
.i 3
.o 2
.ilb a b cin
.ob sum cout
.p 7
100 10
010 10
001 10
111 11
110 01
101 01
011 01
.e
`

func TestParsePLA(t *testing.T) {
	p, err := ParsePLA(strings.NewReader(plaText))
	if err != nil {
		t.Fatal(err)
	}
	if p.NI != 3 || p.NO != 2 || len(p.Rows) != 7 {
		t.Fatalf("shape: %d %d %d", p.NI, p.NO, len(p.Rows))
	}
	if p.InNames[2] != "cin" || p.OutNames[1] != "cout" {
		t.Error("names wrong")
	}
	on := p.OnSet(1)
	if len(on.Cubes) != 4 {
		t.Errorf("cout on-set = %d cubes", len(on.Cubes))
	}
}

func TestPLAMinimizeRoundTrip(t *testing.T) {
	p, err := ParsePLA(strings.NewReader(plaText))
	if err != nil {
		t.Fatal(err)
	}
	min, stats := p.Minimize()
	// cout must minimize from 4 cubes to 3 (ab + ac + bc).
	if stats[1].FinalCubes != 3 {
		t.Errorf("cout minimized to %d cubes, want 3", stats[1].FinalCubes)
	}
	// Per-output functions preserved.
	for o := 0; o < p.NO; o++ {
		if !cube.Equal(p.OnSet(o), min.OnSet(o)) {
			t.Errorf("output %d changed", o)
		}
	}
	var buf strings.Builder
	if err := WritePLA(&buf, min); err != nil {
		t.Fatal(err)
	}
	p2, err := ParsePLA(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	for o := 0; o < p.NO; o++ {
		if !cube.Equal(min.OnSet(o), p2.OnSet(o)) {
			t.Errorf("round trip changed output %d", o)
		}
	}
}

func TestParsePLAErrors(t *testing.T) {
	cases := []string{
		"100 1\n",                      // row before .i/.o
		".i 2\n.o 1\n1- 1 extra\n",     // 3 fields
		".i 2\n.o 1\n1-- 1\n",          // wrong input width
		".i 2\n.o 1\n1- 11\n",          // wrong output width
		".i 2\n.o 1\n1- x\n",           // bad plane
		".i x\n.o 1\n",                 // bad .i
		".o 1\n",                       // missing .i
		".i 2\n.o 1\n.unknown\n1- 1\n", // unknown directive
	}
	for _, in := range cases {
		if _, err := ParsePLA(strings.NewReader(in)); err == nil {
			t.Errorf("ParsePLA(%q) should fail", in)
		}
	}
}

func TestDCSet(t *testing.T) {
	p, err := ParsePLA(strings.NewReader(".i 2\n.o 1\n11 1\n10 -\n.e\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.DCSet(0).Cubes) != 1 {
		t.Error("dc set should have 1 cube")
	}
	min, _ := Minimize(p.OnSet(0), p.DCSet(0))
	// a b + a dc(b') → a.
	if len(min.Cubes) != 1 || min.Cubes[0].Literals() != 1 {
		t.Errorf("dc-aware minimize = %v", min)
	}
}

// TestXcheckReproSeed1007 pins the parallel-REDUCE unsoundness found
// by the cross-engine harness (xcheck: repro seed=1007 domain=cover):
// with a don't-care set, reducing every cube against the original
// cover in parallel let two cubes both shrink away from care minterm
// 51, so Minimize returned a cover that no longer implemented the
// function. REDUCE must be sequential.
func TestXcheckReproSeed1007(t *testing.T) {
	on := cover(t,
		"0-0--1--",
		"-0--0-00",
		"10----11",
		"-001----",
		"110---0-",
		"-0---01-",
		"-1001---",
		"1-1--0--",
		"----0-0-",
		"0-00----",
	)
	dc := cover(t,
		"-0-1-110",
		"1---1-10",
		"---010--",
	)
	min, _ := Minimize(on, dc)
	if !Verify(min, on, dc) {
		t.Fatal("Minimize output fails Verify on the xcheck seed=1007 instance")
	}
	// The specific minterm the parallel REDUCE dropped: 51 = 110011_2
	// read LSB-first over variables x1..x8.
	assign := make([]bool, 8)
	for i := 0; i < 8; i++ {
		assign[i] = 51&(1<<uint(i)) != 0
	}
	if !on.Eval(assign) || dc.Eval(assign) {
		t.Fatal("fixture drifted: minterm 51 should be in on \\ dc")
	}
	if !min.Eval(assign) {
		t.Fatal("minimized cover drops care on-set minterm 51")
	}
}
