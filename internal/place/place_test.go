package place

import (
	"math"
	"math/rand"
	"testing"
)

// tinyProblem: two pads at opposite corners, a chain of cells between
// them. The quadratic optimum spreads the chain along the diagonal.
func tinyProblem(n int) *Problem {
	p := &Problem{
		NCells: n,
		W:      10, H: 10,
		Pads: []Pad{{"L", 0, 0}, {"R", 10, 10}},
	}
	p.Nets = append(p.Nets, Net{Cells: []int{0}, Pads: []int{0}})
	for i := 0; i+1 < n; i++ {
		p.Nets = append(p.Nets, Net{Cells: []int{i, i + 1}})
	}
	p.Nets = append(p.Nets, Net{Cells: []int{n - 1}, Pads: []int{1}})
	return p
}

// randomProblem builds a seeded random instance with grid W×H.
func randomProblem(nCells, nNets int, w, h float64, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &Problem{NCells: nCells, W: w, H: h}
	for i := 0; i < 4; i++ {
		p.Pads = append(p.Pads, Pad{
			Name: "p",
			X:    []float64{0, w, w, 0}[i],
			Y:    []float64{0, 0, h, h}[i],
		})
	}
	for k := 0; k < nNets; k++ {
		deg := 2 + rng.Intn(3)
		net := Net{}
		for d := 0; d < deg; d++ {
			net.Cells = append(net.Cells, rng.Intn(nCells))
		}
		if rng.Intn(4) == 0 {
			net.Pads = append(net.Pads, rng.Intn(len(p.Pads)))
		}
		p.Nets = append(p.Nets, net)
	}
	return p
}

func TestValidate(t *testing.T) {
	p := tinyProblem(3)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Problem{NCells: 1, W: 1, H: 1, Nets: []Net{{Cells: []int{5}, Pads: []int{0}}}}
	if err := bad.Validate(); err == nil {
		t.Error("bad cell index should fail")
	}
	bad2 := &Problem{NCells: 2, W: 0, H: 1}
	if err := bad2.Validate(); err == nil {
		t.Error("zero width should fail")
	}
	bad3 := &Problem{NCells: 2, W: 1, H: 1, Nets: []Net{{Cells: []int{0}}}}
	if err := bad3.Validate(); err == nil {
		t.Error("1-pin net should fail")
	}
}

func TestHPWLChain(t *testing.T) {
	p := tinyProblem(2)
	pl := NewPlacement(2)
	pl.X[0], pl.Y[0] = 2, 2
	pl.X[1], pl.Y[1] = 8, 8
	// net pad0-cell0: (2-0)+(2-0)=4; cell0-cell1: 6+6=12; cell1-pad1: 2+2=4.
	if got := p.HPWL(pl); got != 20 {
		t.Errorf("HPWL = %g, want 20", got)
	}
}

func TestQuadraticChainSolution(t *testing.T) {
	// One cell between two pads lands midway.
	p := tinyProblem(1)
	pl, err := Quadratic(p, QuadraticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pl.X[0]-5) > 0.5 || math.Abs(pl.Y[0]-5) > 0.5 {
		t.Errorf("single cell at (%g,%g), want near (5,5)", pl.X[0], pl.Y[0])
	}
}

func TestQuadraticChainMonotone(t *testing.T) {
	// The raw quadratic solve (before leaf spreading) keeps the chain
	// ordered along the pad diagonal.
	p := tinyProblem(5)
	pl := NewPlacement(5)
	cells := []int{0, 1, 2, 3, 4}
	sc := acquireQuadScratch(p.NCells)
	defer quadScratchPool.Put(sc)
	if _, err := sc.solve(p, pl, cells, rect{0, 0, p.W, p.H}, 1e-10, pl.X, pl.Y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < 5; i++ {
		if pl.X[i] > pl.X[i+1]+1e-6 {
			t.Errorf("chain out of order: x[%d]=%g > x[%d]=%g", i, pl.X[i], i+1, pl.X[i+1])
		}
	}
	// Interior cells sit strictly between the pads.
	for i := 0; i < 5; i++ {
		if pl.X[i] <= 0 || pl.X[i] >= 10 {
			t.Errorf("cell %d at x=%g outside pad span", i, pl.X[i])
		}
	}
}

func TestQuadraticBeatsRandom(t *testing.T) {
	p := randomProblem(60, 120, 10, 10, 4)
	q, err := Quadratic(p, QuadraticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	r := Random(p, 4)
	if p.HPWL(q) >= p.HPWL(r) {
		t.Errorf("quadratic HPWL %g should beat random %g", p.HPWL(q), p.HPWL(r))
	}
}

func TestQuadraticLegalizes(t *testing.T) {
	p := randomProblem(50, 100, 10, 10, 8)
	q, err := Quadratic(p, QuadraticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	leg, err := Legalize(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckLegal(p, leg); err != nil {
		t.Fatal(err)
	}
	// Legalization shouldn't blow up wirelength catastrophically.
	if p.HPWL(leg) > 4*p.HPWL(q)+10 {
		t.Errorf("legalization exploded HPWL: %g -> %g", p.HPWL(q), p.HPWL(leg))
	}
}

func TestLegalizeCapacity(t *testing.T) {
	p := &Problem{NCells: 10, W: 3, H: 3,
		Pads: []Pad{{"a", 0, 0}, {"b", 3, 3}},
		Nets: []Net{{Cells: []int{0, 1}}}}
	if _, err := Legalize(p, NewPlacement(10)); err == nil {
		t.Error("9 slots for 10 cells should fail")
	}
}

func TestCheckLegalDetectsViolations(t *testing.T) {
	p := &Problem{NCells: 2, W: 4, H: 4,
		Pads: []Pad{{"a", 0, 0}, {"b", 4, 4}},
		Nets: []Net{{Cells: []int{0, 1}}}}
	pl := NewPlacement(2)
	pl.X[0], pl.Y[0] = 0.5, 0.5
	pl.X[1], pl.Y[1] = 0.5, 0.5
	if err := CheckLegal(p, pl); err == nil {
		t.Error("overlap should be detected")
	}
	pl.X[1], pl.Y[1] = 1.2, 0.5
	if err := CheckLegal(p, pl); err == nil {
		t.Error("off-center should be detected")
	}
	pl.X[1], pl.Y[1] = 7.5, 0.5
	if err := CheckLegal(p, pl); err == nil {
		t.Error("out of region should be detected")
	}
	pl.X[1], pl.Y[1] = 1.5, 0.5
	if err := CheckLegal(p, pl); err != nil {
		t.Errorf("legal placement rejected: %v", err)
	}
}

func TestAnnealImprovesAndIsLegal(t *testing.T) {
	p := randomProblem(30, 60, 8, 8, 11)
	res, err := Anneal(p, AnnealOpts{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckLegal(p, res.Placement); err != nil {
		t.Fatalf("annealed placement illegal: %v", err)
	}
	r := Random(p, 11)
	if res.HPWL >= p.HPWL(r) {
		t.Errorf("anneal HPWL %g should beat random %g", res.HPWL, p.HPWL(r))
	}
	if res.Moves == 0 || res.Accepted == 0 {
		t.Error("no moves recorded")
	}
}

func TestAnnealTracksCostCorrectly(t *testing.T) {
	// The incremental cost bookkeeping must agree with a fresh HPWL.
	p := randomProblem(20, 40, 6, 6, 13)
	res, err := Anneal(p, AnnealOpts{Seed: 13, MovesPerT: 200, MinTemp: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.HPWL(res.Placement); math.Abs(got-res.HPWL) > 1e-6 {
		t.Errorf("reported HPWL %g != recomputed %g", res.HPWL, got)
	}
}

func TestQuadraticWLDecreasesWithSolve(t *testing.T) {
	p := tinyProblem(4)
	q, err := Quadratic(p, QuadraticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	r := Random(p, 3)
	if p.QuadraticWL(q) >= p.QuadraticWL(r) {
		t.Errorf("quadratic objective %g should beat random %g", p.QuadraticWL(q), p.QuadraticWL(r))
	}
}

func TestPlacementClone(t *testing.T) {
	pl := NewPlacement(2)
	pl.X[0] = 1
	c := pl.Clone()
	c.X[0] = 9
	if pl.X[0] != 1 {
		t.Error("clone aliases original")
	}
}

func TestQuadraticDeterministic(t *testing.T) {
	p := randomProblem(25, 50, 8, 8, 21)
	a, err := Quadratic(p, QuadraticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Quadratic(p, QuadraticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] {
			t.Fatal("quadratic placement should be deterministic")
		}
	}
}
