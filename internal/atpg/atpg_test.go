package atpg

import (
	"strings"
	"testing"

	"vlsicad/internal/netlist"
)

const andOr = `
.model c17ish
.inputs a b c
.outputs z
.names a b t
11 1
.names t c z
1- 1
-1 1
.end
`

func parse(t *testing.T, src string) *netlist.Network {
	t.Helper()
	nw, err := netlist.ParseBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestFaultEnumeration(t *testing.T) {
	nw := parse(t, andOr)
	fs := Faults(nw)
	// Signals: a, b, c, t, z → 10 faults.
	if len(fs) != 10 {
		t.Fatalf("faults = %d, want 10", len(fs))
	}
	if fs[0].String() != "a/sa0" || fs[1].String() != "a/sa1" {
		t.Errorf("fault names: %v %v", fs[0], fs[1])
	}
}

func TestGenerateDetectsInjectedFault(t *testing.T) {
	nw := parse(t, andOr)
	for _, f := range Faults(nw) {
		vec, ok, err := Generate(nw, f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if !ok {
			// This circuit has no redundancy except possibly none.
			t.Errorf("fault %v reported redundant", f)
			continue
		}
		hit, err := Detects(nw, f, vec)
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Errorf("generated vector %v does not detect %v", vec, f)
		}
	}
}

func TestRedundantFaultDetected(t *testing.T) {
	// z = a + a' c: the cover {1-, 01} over (a, c)... build a circuit
	// with a redundant wire: z = ab + ab' + a'b (= a + b), where the
	// node structure makes some stuck-at on an internal signal
	// unobservable. Simpler guaranteed case: t AND-ed with constant 1.
	src := `
.model red
.inputs a
.outputs z
.names one
1
.names a one z
11 1
.end
`
	nw := parse(t, src)
	// one/sa1 is redundant (it is already constant 1).
	_, ok, err := Generate(nw, Fault{Signal: "one", StuckAt: true})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("one/sa1 should be redundant")
	}
	// one/sa0 kills z: detectable.
	vec, ok, err := Generate(nw, Fault{Signal: "one", StuckAt: false})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("one/sa0 should be detectable")
	}
	if !vec["a"] {
		t.Error("test for one/sa0 must set a=1")
	}
}

func TestRunFullATPG(t *testing.T) {
	nw := parse(t, andOr)
	res, err := Run(nw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() < 1.0 {
		t.Errorf("coverage = %.2f, want 1.0 (detected %d, redundant %d of %d)",
			res.Coverage(), res.Detected, res.Redundant, res.Total)
	}
	// Fault dropping must compress the test set well below one test
	// per fault.
	if len(res.Tests) >= res.Total {
		t.Errorf("no compaction: %d tests for %d faults", len(res.Tests), res.Total)
	}
	// Every stored test still detects its target fault.
	for _, tst := range res.Tests {
		hit, err := Detects(nw, tst.Fault, tst.Vector)
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Errorf("stored test for %v no longer detects it", tst.Fault)
		}
	}
}

func TestRunWithRedundancy(t *testing.T) {
	src := `
.model red
.inputs a b
.outputs z
.names one
1
.names a b x
11 1
.names x one z
11 1
.end
`
	nw := parse(t, src)
	res, err := Run(nw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Redundant == 0 {
		t.Error("expected redundant faults (stuck-at-1 on the constant)")
	}
	if res.Coverage() < 1.0 {
		t.Errorf("testable coverage = %.2f, want 1.0", res.Coverage())
	}
}

func TestInjectPreservesInterface(t *testing.T) {
	nw := parse(t, andOr)
	faulty := InjectStuckAt(nw, Fault{Signal: "t", StuckAt: true})
	if len(faulty.Inputs) != len(nw.Inputs) || len(faulty.Outputs) != len(nw.Outputs) {
		t.Error("fault injection changed the interface")
	}
	if err := faulty.Check(); err != nil {
		t.Fatalf("faulty network broken: %v", err)
	}
	// With t stuck at 1, z is constant 1.
	for x := 0; x < 8; x++ {
		val, err := faulty.Eval(map[string]bool{"a": x&1 != 0, "b": x&2 != 0, "c": x&4 != 0})
		if err != nil {
			t.Fatal(err)
		}
		if !val["z"] {
			t.Errorf("z should be stuck high, input %d", x)
		}
	}
}
