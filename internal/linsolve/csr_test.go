package linsolve

import (
	"math/rand"
	"testing"
)

func TestEmptySystem(t *testing.T) {
	a := NewSparse(0)
	for name, run := range map[string]func() Result{
		"CG":          func() Result { _, r := CG(a, nil, 1e-8, 100); return r },
		"Jacobi":      func() Result { _, r := Jacobi(a, nil, 1e-8, 100); return r },
		"GaussSeidel": func() Result { _, r := GaussSeidel(a, nil, 1e-8, 100); return r },
	} {
		if r := run(); !r.Converged || r.Iterations != 0 {
			t.Errorf("%s on 0x0 system: %+v, want converged in 0 iterations", name, r)
		}
	}
	_, _, r1, r2 := CG2(a, nil, nil, 1e-8, 100)
	if !r1.Converged || !r2.Converged {
		t.Errorf("CG2 on 0x0 system: %+v / %+v", r1, r2)
	}
}

func TestZeroDiagonalNoPanic(t *testing.T) {
	// Row 1 has no diagonal entry: the sweep divides by zero and the
	// iterate fills with ±Inf/NaN. The solvers must report
	// non-convergence, never panic.
	a := NewSparse(2)
	a.Add(0, 0, 2)
	a.Add(0, 1, 1)
	a.Add(1, 0, 1)
	b := []float64{1, 1}
	if _, r := Jacobi(a, b, 1e-8, 50); r.Converged {
		t.Errorf("Jacobi with zero diagonal reported convergence: %+v", r)
	}
	if _, r := GaussSeidel(a, b, 1e-8, 50); r.Converged {
		t.Errorf("GaussSeidel with zero diagonal reported convergence: %+v", r)
	}
}

func TestMaxIterExhaustion(t *testing.T) {
	a, b := laplacian1D(50)
	if _, r := CG(a, b, 1e-14, 2); r.Converged || r.Iterations > 2 {
		t.Errorf("CG: %+v, want unconverged within 2 iterations", r)
	}
	if _, r := Jacobi(a, b, 1e-14, 2); r.Converged {
		t.Errorf("Jacobi: %+v, want unconverged", r)
	}
	if _, r := GaussSeidel(a, b, 1e-14, 2); r.Converged {
		t.Errorf("GaussSeidel: %+v, want unconverged", r)
	}
}

func TestFreezeInvalidatedByAdd(t *testing.T) {
	a := NewSparse(2)
	a.Add(0, 0, 2)
	a.Add(1, 1, 2)
	x := []float64{1, 1}
	y := matVec(a, x) // forces a freeze
	if y[0] != 2 || y[1] != 2 {
		t.Fatalf("MatVec = %v, want [2 2]", y)
	}
	a.Add(0, 1, 3) // must invalidate the frozen image
	y = matVec(a, x)
	if y[0] != 5 || y[1] != 2 {
		t.Errorf("MatVec after Add = %v, want [5 2]", y)
	}
	if got := len(entries(a)); got != 3 {
		t.Errorf("Entries has %d triplets, want 3", got)
	}
	a.Reset(3) // reset also invalidates, and resizes
	a.Add(2, 2, 7)
	if e := entries(a); len(e) != 1 || e[0] != [3]float64{2, 2, 7} {
		t.Errorf("Entries after Reset = %v, want [[2 2 7]]", e)
	}
}

func TestCG2MatchesCG(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, _ := laplacian1D(64)
	b1 := make([]float64, 64)
	b2 := make([]float64, 64)
	for i := range b1 {
		b1[i] = rng.NormFloat64()
		b2[i] = rng.NormFloat64()
	}
	x1, r1 := CG(a, b1, 1e-10, 1000)
	x2, r2 := CG(a, b2, 1e-10, 1000)
	y1, y2, q1, q2 := CG2(a, b1, b2, 1e-10, 1000)
	if r1 != q1 || r2 != q2 {
		t.Errorf("results differ: CG %+v/%+v, CG2 %+v/%+v", r1, r2, q1, q2)
	}
	for i := range x1 {
		if x1[i] != y1[i] || x2[i] != y2[i] {
			t.Fatalf("solution %d differs: CG (%v, %v), CG2 (%v, %v)",
				i, x1[i], x2[i], y1[i], y2[i])
		}
	}
	// Asymmetric convergence: one tight system, one trivial, so the
	// fused loop degenerates to single-system sweeps and must still
	// match standalone CG bitwise.
	zero := make([]float64, 64)
	x1, r1 = CG(a, b1, 1e-10, 1000)
	y1, y2, q1, q2 = CG2(a, b1, zero, 1e-10, 1000)
	if r1 != q1 || !q2.Converged || q2.Iterations != 0 {
		t.Errorf("asymmetric CG2: %+v / %+v (CG %+v)", q1, q2, r1)
	}
	for i := range x1 {
		if x1[i] != y1[i] || y2[i] != 0 {
			t.Fatalf("asymmetric solution %d differs", i)
		}
	}
}

func TestMatVecIntoMatchesMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewSparse(40)
	for k := 0; k < 200; k++ {
		a.Add(rng.Intn(40), rng.Intn(40), rng.NormFloat64())
	}
	x := make([]float64, 40)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	// Reference: a dense row sweep in the same ascending-column order,
	// so the sums must agree bit for bit.
	want := make([]float64, 40)
	for i := range want {
		for j := 0; j < 40; j++ {
			if v := a.At(i, j); v != 0 {
				want[i] += v * x[j]
			}
		}
	}
	got := make([]float64, 40)
	a.MatVecInto(got, x)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("entry %d: dense sweep %v, MatVecInto %v", i, want[i], got[i])
		}
	}
}
