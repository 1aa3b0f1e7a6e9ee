package techmap

import (
	"math/rand"
	"strings"
	"testing"

	"vlsicad/internal/netlist"
)

const adderBLIF = `
.model adder
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
`

func subject(t *testing.T, src string) (*Subject, *netlist.Network) {
	t.Helper()
	nw, err := netlist.ParseBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	return s, nw
}

// checkMapped fails the test unless the mapped gates, exported as a
// network, compute the same outputs as nw.
func checkMapped(t *testing.T, s *Subject, res *Result, nw *netlist.Network) {
	t.Helper()
	mapped, err := ToNetwork(s, res, StandardLibrary(), "mapped", nw.Inputs, nw.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := netlist.EquivalentBDD(nw, mapped)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("mapped network is not equivalent to its source %s", nw.Name)
	}
}

func TestSubjectStructuralHashing(t *testing.T) {
	s := NewSubject()
	a, b := s.Input("a"), s.Input("b")
	n1 := s.Nand(a, b)
	n2 := s.Nand(b, a)
	if n1 != n2 {
		t.Error("commutative NAND should hash to same node")
	}
	if s.Input("a") != a {
		t.Error("input leaf not reused")
	}
	if s.Inv(a) != s.Inv(a) {
		t.Error("INV not hashed")
	}
}

func TestSubjectMatchesNetwork(t *testing.T) {
	s, nw := subject(t, adderBLIF)
	for x := 0; x < 8; x++ {
		in := map[string]bool{"a": x&1 != 0, "b": x&2 != 0, "cin": x&4 != 0}
		want, err := nw.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		val := s.Eval(in)
		for name, root := range s.Roots {
			if val[root] != want[name] {
				t.Errorf("x=%d output %s: subject %v, network %v", x, name, val[root], want[name])
			}
		}
	}
}

func TestMapAreaAdder(t *testing.T) {
	s, nw := subject(t, adderBLIF)
	res, err := Map(s, StandardLibrary(), MinArea)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 || res.Area <= 0 {
		t.Fatal("empty mapping")
	}
	// Mapped circuit must compute the same function.
	checkMapped(t, s, res, nw)
}

func TestRichLibraryBeatsMinimal(t *testing.T) {
	s, _ := subject(t, adderBLIF)
	rich, err := Map(s, StandardLibrary(), MinArea)
	if err != nil {
		t.Fatal(err)
	}
	min, err := Map(s, minimalLibrary(), MinArea)
	if err != nil {
		t.Fatal(err)
	}
	if rich.Area > min.Area {
		t.Errorf("rich library area %.1f should be <= minimal %.1f", rich.Area, min.Area)
	}
}

func TestDelayObjectiveNotWorseThanAreaOnDelay(t *testing.T) {
	s, _ := subject(t, adderBLIF)
	areaRes, err := Map(s, StandardLibrary(), MinArea)
	if err != nil {
		t.Fatal(err)
	}
	delayRes, err := Map(s, StandardLibrary(), MinDelay)
	if err != nil {
		t.Fatal(err)
	}
	if delayRes.Delay > areaRes.Delay+1e-9 {
		t.Errorf("delay mapping (%.2f) should not be slower than area mapping (%.2f)",
			delayRes.Delay, areaRes.Delay)
	}
}

func TestMapEmptyLibrary(t *testing.T) {
	s, _ := subject(t, adderBLIF)
	if _, err := Map(s, nil, MinArea); err == nil {
		t.Error("empty library should fail")
	}
}

func TestMapRandomNetworks(t *testing.T) {
	// Random two-level networks: map and verify functionally on all
	// inputs.
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 20; iter++ {
		var b strings.Builder
		b.WriteString(".model r\n.inputs a b c d\n.outputs f\n.names a b c d f\n")
		rows := 1 + rng.Intn(5)
		for i := 0; i < rows; i++ {
			for j := 0; j < 4; j++ {
				b.WriteByte("01-"[rng.Intn(3)])
			}
			b.WriteString(" 1\n")
		}
		b.WriteString(".end\n")
		s, nw := subject(t, b.String())
		res, err := Map(s, StandardLibrary(), MinArea)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		checkMapped(t, s, res, nw)
	}
}

func TestPatternPins(t *testing.T) {
	for _, g := range StandardLibrary() {
		if g.Pat.Pins() < 1 {
			t.Errorf("gate %s has no pins", g.Name)
		}
	}
	lib := StandardLibrary()
	byName := map[string]int{}
	for _, g := range lib {
		byName[g.Name] = g.Pat.Pins()
	}
	if byName["INV"] != 1 || byName["NAND2"] != 2 || byName["NAND3"] != 3 || byName["AOI22"] != 4 {
		t.Errorf("pin counts wrong: %v", byName)
	}
}

func TestSubjectStats(t *testing.T) {
	s, _ := subject(t, adderBLIF)
	ins, invs, nands := s.Stats()
	if ins != 3 {
		t.Errorf("inputs = %d", ins)
	}
	if invs == 0 || nands == 0 {
		t.Error("expected INV and NAND nodes")
	}
	names := s.InputNames()
	if len(names) != 3 || names[0] != "a" {
		t.Errorf("InputNames = %v", names)
	}
}

func TestConstantsInNetwork(t *testing.T) {
	src := `
.model c
.inputs a
.outputs f g
.names one
1
.names a one f
11 1
.names a g
1 1
.end
`
	s, nw := subject(t, src)
	res, err := Map(s, StandardLibrary(), MinArea)
	if err != nil {
		t.Fatal(err)
	}
	checkMapped(t, s, res, nw)
}

// minimalLibrary returns just INV and NAND2 — the baseline against
// which richer libraries are compared.
func minimalLibrary() []Gate {
	return []Gate{
		{Name: "INV", Area: 1, Delay: 1, Pat: pinv(pin())},
		{Name: "NAND2", Area: 2, Delay: 1, Pat: pnand(pin(), pin())},
	}
}
