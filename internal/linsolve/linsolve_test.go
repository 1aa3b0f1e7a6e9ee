package linsolve

import (
	"math"
	"math/rand"
	"testing"
)

// laplacian1D builds the classic SPD tridiagonal system the course's
// quadratic-placement homeworks use.
func laplacian1D(n int) (*Sparse, []float64) {
	a := NewSparse(n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a.Add(i, i, 2)
		if i > 0 {
			a.Add(i, i-1, -1)
		}
		if i < n-1 {
			a.Add(i, i+1, -1)
		}
	}
	b[0] = 1 // boundary pulls
	b[n-1] = 2
	return a, b
}

func residual(a *Sparse, x, b []float64) float64 {
	r := matVec(a, x)
	worst := 0.0
	for i := range r {
		if d := math.Abs(r[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestCGSolvesLaplacian(t *testing.T) {
	a, b := laplacian1D(50)
	x, res := CG(a, b, 1e-10, 1000)
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	if r := residual(a, x, b); r > 1e-6 {
		t.Errorf("residual = %g", r)
	}
}

func TestJacobiAndGaussSeidel(t *testing.T) {
	a, b := laplacian1D(20)
	xj, rj := Jacobi(a, b, 1e-8, 20000)
	if !rj.Converged {
		t.Fatalf("Jacobi did not converge: %+v", rj)
	}
	if r := residual(a, xj, b); r > 1e-5 {
		t.Errorf("Jacobi residual = %g", r)
	}
	xg, rg := GaussSeidel(a, b, 1e-8, 20000)
	if !rg.Converged {
		t.Fatalf("Gauss-Seidel did not converge: %+v", rg)
	}
	if r := residual(a, xg, b); r > 1e-5 {
		t.Errorf("GS residual = %g", r)
	}
	if rg.Iterations >= rj.Iterations {
		t.Errorf("Gauss-Seidel (%d iters) should beat Jacobi (%d)", rg.Iterations, rj.Iterations)
	}
}

func TestSolversAgree(t *testing.T) {
	a, b := laplacian1D(15)
	xc, _ := CG(a, b, 1e-12, 1000)
	xg, _ := GaussSeidel(a, b, 1e-12, 100000)
	for i := range xc {
		if math.Abs(xc[i]-xg[i]) > 1e-5 {
			t.Fatalf("CG and GS disagree at %d: %g vs %g", i, xc[i], xg[i])
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	a, _ := laplacian1D(5)
	x, res := CG(a, make([]float64, 5), 1e-10, 100)
	if !res.Converged {
		t.Error("zero rhs should converge immediately")
	}
	for _, v := range x {
		if v != 0 {
			t.Error("solution should be zero")
		}
	}
}

// TestIntoFormsMatchWrappers locks the delegation contract: the Into
// solvers must reproduce the allocating wrappers bit-for-bit, even
// when handed a dirty solution buffer (they start from x = 0).
func TestIntoFormsMatchWrappers(t *testing.T) {
	a, b := laplacian1D(20)
	for name, pair := range map[string]struct {
		wrap func(*Sparse, []float64, float64, int) ([]float64, Result)
		into func([]float64, *Sparse, []float64, float64, int) Result
	}{
		"jacobi":       {Jacobi, JacobiInto},
		"gauss-seidel": {GaussSeidel, GaussSeidelInto},
	} {
		want, wres := pair.wrap(a, b, 1e-8, 20000)
		got := make([]float64, a.N)
		for i := range got {
			got[i] = math.NaN() // a dirty buffer must not leak into the solve
		}
		gres := pair.into(got, a, b, 1e-8, 20000)
		if wres != gres {
			t.Fatalf("%s: results differ: %+v vs %+v", name, wres, gres)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: solution differs at %d: %v vs %v", name, i, want[i], got[i])
			}
		}
	}
	// Zero RHS short-circuits but must still clear the caller's buffer.
	zero := make([]float64, a.N)
	x := []float64{1, 2, 3}
	res := JacobiInto(x[:3], NewSparse(3), zero[:3], 1e-8, 10)
	if !res.Converged || x[0] != 0 || x[1] != 0 || x[2] != 0 {
		t.Fatalf("zero-RHS Into: %+v, x = %v", res, x)
	}
}

func TestSolveDense(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{3, 5}
	x, err := SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=3, x+3y=5 → x=4/5, y=7/5.
	if math.Abs(x[0]-0.8) > 1e-12 || math.Abs(x[1]-1.4) > 1e-12 {
		t.Errorf("x = %v", x)
	}
}

func TestSolveDensePivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x, err := SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Errorf("x = %v", x)
	}
}

func TestSolveDenseErrors(t *testing.T) {
	if _, err := SolveDense([][]float64{{1, 1}, {1, 1}}, []float64{1, 2}); err == nil {
		t.Error("singular matrix should fail")
	}
	if _, err := SolveDense([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("dimension mismatch should fail")
	}
	if _, err := SolveDense([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("non-square should fail")
	}
}

func TestDenseVsCGRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 20; iter++ {
		n := 2 + rng.Intn(8)
		// A = M^T M + I is SPD.
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
			for j := range m[i] {
				m[i][j] = rng.NormFloat64()
			}
		}
		dense := make([][]float64, n)
		sp := NewSparse(n)
		for i := 0; i < n; i++ {
			dense[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += m[k][i] * m[k][j]
				}
				if i == j {
					s += 1
				}
				dense[i][j] = s
				sp.Add(i, j, s)
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xc, res := CG(sp, b, 1e-12, 10000)
		if !res.Converged {
			t.Fatalf("iter %d: CG failed", iter)
		}
		xd, err := SolveDense(dense, b)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for i := range xc {
			if math.Abs(xc[i]-xd[i]) > 1e-6 {
				t.Fatalf("iter %d: CG and dense disagree at %d: %g vs %g", iter, i, xc[i], xd[i])
			}
		}
	}
}

func TestSparseEntriesAndNNZ(t *testing.T) {
	a := NewSparse(2)
	a.Add(0, 1, 2)
	a.Add(0, 1, 3) // accumulates
	a.Add(1, 0, 1)
	if a.NNZ() != 2 {
		t.Errorf("NNZ = %d", a.NNZ())
	}
	if a.At(0, 1) != 5 {
		t.Errorf("At(0,1) = %v", a.At(0, 1))
	}
	ents := entries(a)
	if len(ents) != 2 || ents[0] != [3]float64{0, 1, 5} {
		t.Errorf("Entries = %v", ents)
	}
}

// TestSolversBitDeterministic locks the summation-order fix: repeated
// solves of the same system must agree bit-for-bit. Before sortedCols,
// MatVec summed in map iteration order, so CG trajectories (and the
// quadratic placements built on them) differed between runs.
func TestSolversBitDeterministic(t *testing.T) {
	build := func() (*Sparse, []float64) {
		n := 40
		a := NewSparse(n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a.Add(i, i, 8+float64(i%5))
			for d := 1; d <= 6; d++ {
				j := (i + d*7) % n
				if j != i {
					a.Add(i, j, -0.3)
					a.Add(j, i, -0.3)
				}
			}
			b[i] = float64((i*13)%11) - 5
		}
		return a, b
	}
	a1, b1 := build()
	a2, b2 := build()
	x1, _ := CG(a1, b1, 1e-10, 500)
	x2, _ := CG(a2, b2, 1e-10, 500)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("CG not bit-deterministic at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
	for name, solve := range map[string]func(*Sparse, []float64, float64, int) ([]float64, Result){
		"jacobi": Jacobi, "gauss-seidel": GaussSeidel,
	} {
		a1, b1 := build()
		a2, b2 := build()
		y1, _ := solve(a1, b1, 1e-10, 500)
		y2, _ := solve(a2, b2, 1e-10, 500)
		for i := range y1 {
			if y1[i] != y2[i] {
				t.Fatalf("%s not bit-deterministic at %d", name, i)
			}
		}
	}
	// MatVec after further Adds must see the refreshed column cache.
	a, _ := build()
	x := make([]float64, a.N)
	for i := range x {
		x[i] = float64(i)
	}
	before := matVec(a, x)
	a.Add(0, a.N-1, 2)
	after := matVec(a, x)
	if want := before[0] + 2*x[a.N-1]; after[0] != want {
		t.Fatalf("MatVec after Add: got %v, want %v", after[0], want)
	}
}

// matVec returns A·x in a new slice.
func matVec(a *Sparse, x []float64) []float64 {
	y := make([]float64, a.N)
	a.MatVecInto(y, x)
	return y
}

// entries returns the matrix's (i, j, v) triplets in row-major,
// ascending-column order, read from its frozen CSR image.
func entries(a *Sparse) [][3]float64 {
	f := a.Freeze()
	out := make([][3]float64, 0, len(f.Val))
	for i := 0; i < f.N; i++ {
		for k := f.RowPtr[i]; k < f.RowPtr[i+1]; k++ {
			out = append(out, [3]float64{float64(i), float64(f.ColIdx[k]), f.Val[k]})
		}
	}
	return out
}
