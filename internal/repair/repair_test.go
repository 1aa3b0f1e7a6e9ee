package repair

import (
	"strings"
	"testing"

	"vlsicad/internal/netlist"
)

const specBLIF = `
.model spec
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

func TestRepairInjectedFault(t *testing.T) {
	spec := parse(t, specBLIF)
	impl := spec.Clone()
	if err := InjectFault(impl, "t"); err != nil {
		t.Fatal(err)
	}
	eq, _, err := netlist.EquivalentSAT(impl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("fault injection should break equivalence")
	}
	res, err := Repair(impl, spec, "t")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired {
		t.Fatal("repair should succeed")
	}
	if err := Apply(impl, "t", res); err != nil {
		t.Fatal(err)
	}
	eq, witness, err := netlist.EquivalentSAT(impl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("repaired network still differs (witness %v)", witness)
	}
	eqB, err := netlist.EquivalentBDD(impl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !eqB {
		t.Error("BDD check disagrees after repair")
	}
}

func TestRepairFindsDontCares(t *testing.T) {
	// The suspect node s reads u = a·b and v = a; the local pattern
	// (u=1, v=0) is unreachable (u implies v), so it must surface as a
	// satisfiability don't-care of the repair.
	src := `
.model s
.inputs a b
.outputs z
.names a b u
11 1
.names a v
1 1
.names u v s
11 1
.names s z
1 1
.end
`
	spec := parse(t, src)
	impl := spec.Clone()
	if err := InjectFault(impl, "s"); err != nil {
		t.Fatal(err)
	}
	res, err := Repair(impl, spec, "s")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired {
		t.Fatal("repair should succeed")
	}
	if res.DCPatterns == 0 {
		t.Error("expected satisfiability don't-care for unreachable pattern u=1,v=0")
	}
	if err := Apply(impl, "s", res); err != nil {
		t.Fatal(err)
	}
	eq, _, err := netlist.EquivalentSAT(impl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("repaired network differs")
	}
}

func TestUnrepairableAtWrongNode(t *testing.T) {
	// If the fault is in node t but we try to repair a node whose
	// fanins cannot express the correction, repair must report failure
	// rather than produce a wrong fix. Build: z = a XOR b, impl z = a,
	// suspect node "w" = buffer of b feeding nothing relevant.
	spec := parse(t, `
.model s
.inputs a b
.outputs z
.names a b z
10 1
01 1
.end
`)
	impl := parse(t, `
.model i
.inputs a b
.outputs z
.names a w z
1- 1
.names b w
1 1
.end
`)
	// Suspect w: its function over fanin {b} cannot make z = a^b since
	// z ignores w... z = a regardless: check unrepairable.
	res, err := Repair(impl, spec, "w")
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired {
		t.Error("repair at an irrelevant node should fail")
	}
}

func TestRepairAtOutputNode(t *testing.T) {
	spec := parse(t, specBLIF)
	impl := spec.Clone()
	if err := InjectFault(impl, "z"); err != nil {
		t.Fatal(err)
	}
	res, err := Repair(impl, spec, "z")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired {
		t.Fatal("output node repair should succeed")
	}
	if err := Apply(impl, "z", res); err != nil {
		t.Fatal(err)
	}
	eq, _, err := netlist.EquivalentSAT(impl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("repaired network differs")
	}
}

func TestRepairErrors(t *testing.T) {
	spec := parse(t, specBLIF)
	impl := spec.Clone()
	if _, err := Repair(impl, spec, "nope"); err == nil {
		t.Error("unknown suspect should fail")
	}
	if err := InjectFault(impl, "nope"); err == nil {
		t.Error("unknown fault node should fail")
	}
	if err := Apply(impl, "t", &Result{}); err == nil {
		t.Error("applying empty result should fail")
	}
}

func TestRepairInterfaceMismatch(t *testing.T) {
	spec := parse(t, `
.model spec
.inputs p q
.outputs z
.names p q z
11 1
.end
`)
	impl := parse(t, `
.model impl
.inputs a b
.outputs z
.names a b z
10 1
.end
`)
	_, err := Repair(impl, spec, "z")
	if err == nil || !strings.Contains(err.Error(), "input sets differ") {
		t.Fatalf("Repair over inputs a b against a spec over p q: err = %v, want an interface error", err)
	}
}

func TestRepairNoopWhenAlreadyCorrect(t *testing.T) {
	spec := parse(t, specBLIF)
	impl := spec.Clone()
	res, err := Repair(impl, spec, "t")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired {
		t.Fatal("correct network is trivially repairable")
	}
	if err := Apply(impl, "t", res); err != nil {
		t.Fatal(err)
	}
	eq, _, err := netlist.EquivalentSAT(impl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("no-op repair changed function")
	}
}
