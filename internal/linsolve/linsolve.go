// Package linsolve provides the sparse and dense linear-system solvers
// behind the course's "Ax=b" tool portal and the quadratic placer:
// conjugate gradients (single and fused dual-RHS), Jacobi and
// Gauss–Seidel iterations for sparse symmetric-positive-definite
// systems, and Gaussian elimination with partial pivoting for small
// dense systems.
//
// A Sparse matrix is built through the map-based Add API and frozen
// into a flat CSR image (Freeze) the first time a kernel needs it; all
// solvers run on the frozen arrays, so their inner loops touch no maps
// and allocate nothing once the scratch pool is warm. Every kernel
// sums each row in ascending column order, so results are
// bit-deterministic run to run (see DESIGN.md §12).
package linsolve

import (
	"fmt"
	"math"
)

// Sparse is a square sparse matrix in per-row coordinate form.
// Duplicate Add calls to the same (i, j) accumulate.
type Sparse struct {
	N    int
	rows []map[int]float64
	// frz caches the CSR image of the matrix; frozen marks it valid.
	// Any Add or Reset invalidates the image (the arrays are kept and
	// reused by the next Freeze). The CSR's ascending-column order is
	// what fixes the solvers' floating-point summation order — and
	// hence every result bit — run to run. (CG feeding the quadratic
	// placer was visibly nondeterministic across runs before: tiny
	// map-order sum reorderings flipped legalization ties and changed
	// downstream routing instances.)
	frz    CSR
	frozen bool
}

// NewSparse returns an n×n zero matrix.
func NewSparse(n int) *Sparse {
	a := &Sparse{}
	a.Reset(n)
	return a
}

// Reset clears the matrix to n×n zero, reusing the row maps and the
// frozen-image buffers from previous use — the builder-recycling hook
// the quadratic placer leans on to rebuild a system per region without
// reallocating (DESIGN.md §12).
func (a *Sparse) Reset(n int) {
	if cap(a.rows) >= n {
		a.rows = a.rows[:n]
		for i := range a.rows {
			clear(a.rows[i])
		}
	} else {
		rows := make([]map[int]float64, n)
		copy(rows, a.rows)
		for i, r := range rows {
			if r == nil {
				rows[i] = map[int]float64{}
			} else {
				clear(r)
			}
		}
		a.rows = rows
	}
	a.N = n
	a.frozen = false
}

// Add accumulates v into entry (i, j).
func (a *Sparse) Add(i, j int, v float64) {
	a.rows[i][j] += v
	a.frozen = false
}

// At returns entry (i, j).
func (a *Sparse) At(i, j int) float64 { return a.rows[i][j] }

// NNZ returns the number of stored nonzeros.
func (a *Sparse) NNZ() int {
	n := 0
	for _, r := range a.rows {
		n += len(r)
	}
	return n
}

// Result reports iterative-solver convergence.
type Result struct {
	Iterations int
	Residual   float64
	Converged  bool
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm(a []float64) float64 { return math.Sqrt(dot(a, a)) }

// CG solves A·x = b for symmetric positive-definite A by conjugate
// gradients, starting from x = 0.
func CG(a *Sparse, b []float64, tol float64, maxIter int) ([]float64, Result) {
	x := make([]float64, a.N)
	res := CGInto(x, a, b, tol, maxIter)
	return x, res
}

// Jacobi solves A·x = b by Jacobi iteration (diagonally dominant A).
// A zero diagonal entry poisons the iterate with ±Inf/NaN; the solver
// then reports Converged == false rather than panicking.
func Jacobi(a *Sparse, b []float64, tol float64, maxIter int) ([]float64, Result) {
	x := make([]float64, a.N)
	return x, JacobiInto(x, a, b, tol, maxIter)
}

// JacobiInto solves A·x = b by Jacobi iteration into a caller-provided
// solution vector, starting from x = 0. len(x) must equal a.N. The
// iteration alternates between x and a second iterate owned by the
// matrix's frozen image, so it allocates nothing once the image
// exists; two JacobiInto calls on one matrix must therefore not run
// concurrently. Results are bit-identical to Jacobi.
func JacobiInto(x []float64, a *Sparse, b []float64, tol float64, maxIter int) Result {
	n := a.N
	for i := range x {
		x[i] = 0
	}
	bn := norm(b)
	if bn == 0 {
		return Result{Converged: true}
	}
	f := a.Freeze()
	f.iter = growF64(f.iter, n)
	cur, next := x, f.iter
	var res Result
	for res.Iterations = 0; res.Iterations < maxIter; res.Iterations++ {
		for i := 0; i < n; i++ {
			s := b[i]
			d := 0.0
			for k := f.RowPtr[i]; k < f.RowPtr[i+1]; k++ {
				j := int(f.ColIdx[k])
				v := f.Val[k]
				if j == i {
					d = v
					continue
				}
				s -= v * cur[j]
			}
			next[i] = s / d
		}
		cur, next = next, cur
		res.Residual = f.residualNorm(cur, b) / bn
		if res.Residual < tol {
			res.Converged = true
			break
		}
	}
	copy(x, cur)
	return res
}

// GaussSeidel solves A·x = b by Gauss–Seidel iteration. Like Jacobi,
// a zero diagonal yields Converged == false, never a panic.
func GaussSeidel(a *Sparse, b []float64, tol float64, maxIter int) ([]float64, Result) {
	x := make([]float64, a.N)
	return x, GaussSeidelInto(x, a, b, tol, maxIter)
}

// GaussSeidelInto solves A·x = b by Gauss–Seidel iteration into a
// caller-provided solution vector, starting from x = 0 and allocating
// nothing once the matrix is frozen. len(x) must equal a.N. Results
// are bit-identical to GaussSeidel.
func GaussSeidelInto(x []float64, a *Sparse, b []float64, tol float64, maxIter int) Result {
	n := a.N
	for i := range x {
		x[i] = 0
	}
	bn := norm(b)
	if bn == 0 {
		return Result{Converged: true}
	}
	f := a.Freeze()
	var res Result
	for res.Iterations = 0; res.Iterations < maxIter; res.Iterations++ {
		for i := 0; i < n; i++ {
			s := b[i]
			d := 0.0
			for k := f.RowPtr[i]; k < f.RowPtr[i+1]; k++ {
				j := int(f.ColIdx[k])
				v := f.Val[k]
				if j == i {
					d = v
					continue
				}
				s -= v * x[j]
			}
			x[i] = s / d
		}
		res.Residual = f.residualNorm(x, b) / bn
		if res.Residual < tol {
			res.Converged = true
			return res
		}
	}
	return res
}

// SolveDense solves a dense system by Gaussian elimination with
// partial pivoting. The matrix is given row-major and is modified.
func SolveDense(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if len(b) != n {
		return nil, fmt.Errorf("linsolve: b has %d entries, want %d", len(b), n)
	}
	for i := range a {
		if len(a[i]) != n {
			return nil, fmt.Errorf("linsolve: row %d has %d entries, want %d", i, len(a[i]), n)
		}
	}
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return nil, fmt.Errorf("linsolve: singular matrix at column %d", col)
		}
		a[col], a[piv] = a[piv], a[col]
		x[col], x[piv] = x[piv], x[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	for col := n - 1; col >= 0; col-- {
		s := x[col]
		for c := col + 1; c < n; c++ {
			s -= a[col][c] * x[c]
		}
		x[col] = s / a[col][col]
	}
	return x, nil
}
