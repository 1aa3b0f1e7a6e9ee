package xcheck

import (
	"fmt"
	"strings"

	"vlsicad/internal/bdd"
	"vlsicad/internal/cube"
	"vlsicad/internal/espresso"
)

// CoverInstance is a two-level minimization test case: an on-set cover
// and an optional don't-care cover over N variables.
type CoverInstance struct {
	Seed uint64
	N    int
	On   *cube.Cover
	DC   *cube.Cover // nil means no don't cares
}

// Domain implements Instance.
func (ci *CoverInstance) Domain() string { return "cover" }

// InstanceSeed implements Instance.
func (ci *CoverInstance) InstanceSeed() uint64 { return ci.Seed }

// Dump implements Instance: header, then on-set cubes, then don't-care
// cubes, in the course's 0/1/- row notation.
func (ci *CoverInstance) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "xcheck cover v1\nseed %d\nn %d\non %d\n", ci.Seed, ci.N, len(ci.On.Cubes))
	for _, c := range ci.On.Cubes {
		b.WriteString(c.Row())
		b.WriteByte('\n')
	}
	ndc := 0
	if ci.DC != nil {
		ndc = len(ci.DC.Cubes)
	}
	fmt.Fprintf(&b, "dc %d\n", ndc)
	if ci.DC != nil {
		for _, c := range ci.DC.Cubes {
			b.WriteString(c.Row())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// randCube draws a cube with the given don't-care probability (in
// 1/8ths); the remaining mass splits evenly between the two literals.
func randCube(rng *RNG, n, dcEighths int) cube.Cube {
	c := cube.NewCube(n)
	for i := 0; i < n; i++ {
		r := rng.Intn(8)
		switch {
		case r < dcEighths:
			c[i] = cube.DC
		case (r-dcEighths)%2 == 0:
			c[i] = cube.Pos
		default:
			c[i] = cube.Neg
		}
	}
	return c
}

// GenCover generates a cover instance from the seed: 3..10 variables,
// 1..2n on-set cubes, and a don't-care set on roughly a third of the
// instances. All size parameters are drawn from the seed.
func GenCover(seed uint64) *CoverInstance {
	rng := NewRNG(seed)
	n := rng.Range(3, 10)
	ncubes := rng.Range(1, 2*n)
	on := cube.NewCover(n)
	for i := 0; i < ncubes; i++ {
		on.Add(randCube(rng, n, 4))
	}
	inst := &CoverInstance{Seed: seed, N: n, On: on}
	if rng.Intn(3) == 0 {
		dc := cube.NewCover(n)
		for i := 0; i < rng.Range(1, n); i++ {
			dc.Add(randCube(rng, n, 3))
		}
		inst.DC = dc
	}
	return inst
}

// CheckCover cross-validates the two-level stack on one instance:
//
//	espresso.Minimize   vs  espresso.Verify        (output contract)
//	espresso.Minimize   vs  BDD equivalence        (function preserved)
//	espresso.MinimizeExact (n ≤ 7)                 (never beaten, same function)
//	cube.Complement/IsTautology (URP) vs BDD       (complement, tautology)
//	cover.Eval vs BDD Eval (n ≤ 12)                (exhaustive sweep)
//	cover.Minterms count vs BDD SatCount           (model counting)
func (c *Checker) CheckCover(ci *CoverInstance) []Mismatch {
	var out []Mismatch
	bad := func(format string, args ...interface{}) {
		out = append(out, Mismatch{Domain: "cover", Seed: ci.Seed,
			Detail: fmt.Sprintf(format, args...), Dump: ci.Dump()})
	}

	on, dc := ci.On, ci.DC
	m := bdd.New(ci.N)
	bOn := bdd.FromCover(m, on)
	bDC := bdd.FromCover(m, cube.NewCover(ci.N))
	if dc != nil {
		bDC = bdd.FromCover(m, dc)
	}

	// Heuristic minimization: contract and functional equivalence.
	min, _ := espresso.Minimize(on, dc)
	if !espresso.Verify(min, on, dc) {
		bad("espresso.Verify rejects its own Minimize output")
	}
	bMin := bdd.FromCover(m, min)
	care := m.And(bOn, m.Not(bDC)) // on \ dc: must stay covered
	if m.Implies(care, bMin) != m.True() {
		bad("espresso.Minimize lost on-set minterms (BDD check)")
	}
	if m.Implies(bMin, m.Or(bOn, bDC)) != m.True() {
		bad("espresso.Minimize covers minterms outside on ∪ dc (BDD check)")
	}

	// Exact minimization can never use more cubes, and obeys the same
	// contract. Bounded: QM enumerates the care minterms.
	if ci.N <= 7 {
		exact, err := espresso.MinimizeExact(on, dc)
		if err != nil {
			bad("espresso.MinimizeExact failed: %v", err)
		} else {
			if len(exact.Cubes) > len(min.Cubes) {
				bad("exact cover has %d cubes, heuristic only %d", len(exact.Cubes), len(min.Cubes))
			}
			bExact := bdd.FromCover(m, exact)
			if m.Implies(care, bExact) != m.True() || m.Implies(bExact, m.Or(bOn, bDC)) != m.True() {
				bad("espresso.MinimizeExact violates the on/dc contract (BDD check)")
			}
		}
	}

	// URP complement against BDD negation.
	comp := on.Complement()
	bComp := bdd.FromCover(m, comp)
	if bComp != m.Not(bOn) {
		bad("URP Complement disagrees with BDD negation")
	}
	if union := on.Clone().Or(comp); !union.IsTautology() {
		bad("URP: f ∪ f' is not a tautology")
	}
	if inter := on.And(comp); bdd.FromCover(m, inter) != m.False() {
		bad("URP: f ∩ f' is not empty (BDD check)")
	}

	// URP tautology against the canonical BDD test.
	if on.IsTautology() != (bOn == m.True()) {
		bad("URP IsTautology=%v but BDD says %v", on.IsTautology(), bOn == m.True())
	}

	// Exhaustive sweep: every engine's Eval agrees on every minterm.
	if ci.N <= 12 {
		assign := make([]bool, ci.N)
		for mt := uint(0); mt < 1<<uint(ci.N); mt++ {
			for i := 0; i < ci.N; i++ {
				assign[i] = mt&(1<<uint(i)) != 0
			}
			fv := on.Eval(assign)
			if got := m.Eval(bOn, assign); got != fv {
				bad("minterm %d: cover.Eval=%v bdd.Eval=%v", mt, fv, got)
				break
			}
			if comp.Eval(assign) == fv {
				bad("minterm %d: complement agrees with original", mt)
				break
			}
			dcv := dc != nil && dc.Eval(assign)
			mv := min.Eval(assign)
			if fv && !dcv && !mv {
				bad("minterm %d: minimized cover dropped a care on-set minterm", mt)
				break
			}
			if mv && !fv && !dcv {
				bad("minterm %d: minimized cover added a minterm outside on ∪ dc", mt)
				break
			}
		}
	}

	// Model counting: URP-free enumeration vs BDD SatCount.
	if ci.N <= 12 {
		if got, want := int(m.SatCount(bOn)), len(on.Minterms()); got != want {
			bad("SatCount=%d but Minterms()=%d", got, want)
		}
	}

	c.note("cover", ci.Seed, out)
	return out
}
