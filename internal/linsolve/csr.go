package linsolve

import (
	"math"
	"slices"
	"sync"
)

// CSR is the frozen compressed-sparse-row image of a Sparse matrix:
// row i's nonzeros are Val[RowPtr[i]:RowPtr[i+1]] at ascending column
// indices ColIdx[RowPtr[i]:RowPtr[i+1]]. The ascending order fixes the
// floating-point summation order of every kernel, so results are
// bit-deterministic — the same contract the map solvers kept through
// their sorted-column cache, now without a map lookup per nonzero.
type CSR struct {
	N      int
	RowPtr []int32
	ColIdx []int32
	Val    []float64
	// iter is JacobiInto's second iterate, kept with the image so a
	// warm solve allocates nothing.
	iter []float64
}

// Freeze returns the CSR image of the matrix, rebuilding it only if
// the matrix changed since the last call. The returned value aliases
// the matrix's internal buffers: it is valid until the next Add or
// Reset, and must not be mutated.
func (a *Sparse) Freeze() *CSR {
	if a.frozen {
		return &a.frz
	}
	nnz := a.NNZ()
	f := &a.frz
	f.N = a.N
	f.RowPtr = growI32(f.RowPtr, a.N+1)
	f.ColIdx = growI32(f.ColIdx, nnz)
	f.Val = growF64(f.Val, nnz)
	f.RowPtr[0] = 0
	at := 0
	for i, row := range a.rows {
		start := at
		for j := range row {
			f.ColIdx[at] = int32(j)
			at++
		}
		slices.Sort(f.ColIdx[start:at])
		for k := start; k < at; k++ {
			f.Val[k] = row[int(f.ColIdx[k])]
		}
		f.RowPtr[i+1] = int32(at)
	}
	a.frozen = true
	return f
}

// MatVecInto computes y = A·x in place (deterministic ascending-column
// summation order).
func (a *Sparse) MatVecInto(y, x []float64) {
	a.Freeze().MatVecInto(y, x)
}

// MatVecInto computes y = A·x over the frozen image.
func (f *CSR) MatVecInto(y, x []float64) {
	for i := 0; i < f.N; i++ {
		s := 0.0
		for k := f.RowPtr[i]; k < f.RowPtr[i+1]; k++ {
			s += f.Val[k] * x[f.ColIdx[k]]
		}
		y[i] = s
	}
}

// residualNorm returns ‖b − A·x‖₂, computing each residual entry from
// its row as it goes. Each row sums in ascending column order and the
// squares accumulate in row order, so the result is bit-identical to
// norm(b − MatVecInto(x)) without a residual vector.
func (f *CSR) residualNorm(x, b []float64) float64 {
	ss := 0.0
	for i := 0; i < f.N; i++ {
		s := 0.0
		for k := f.RowPtr[i]; k < f.RowPtr[i+1]; k++ {
			s += f.Val[k] * x[f.ColIdx[k]]
		}
		r := b[i] - s
		ss += r * r
	}
	return math.Sqrt(ss)
}

// matVecInto2 computes y1 = A·x1 and y2 = A·x2 in one sweep of the
// matrix. Each sum accumulates in the same ascending-column order as a
// standalone MatVecInto, so the fused kernel is bit-identical per
// system; fusing only shares the traversal of RowPtr/ColIdx/Val.
func (f *CSR) matVecInto2(y1, y2, x1, x2 []float64) {
	for i := 0; i < f.N; i++ {
		s1, s2 := 0.0, 0.0
		for k := f.RowPtr[i]; k < f.RowPtr[i+1]; k++ {
			v := f.Val[k]
			j := f.ColIdx[k]
			s1 += v * x1[j]
			s2 += v * x2[j]
		}
		y1[i] = s1
		y2[i] = s2
	}
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// cgScratch holds the solver's working vectors, recycled through a
// sync.Pool so a CG (3 vectors) or CG2 (6 vectors) call allocates
// nothing once the pool is warm — the route/anneal pooling pattern
// applied to the linear solvers. The vectors carry no state between
// uses (every kernel fully overwrites them), so unlike the placer's
// epoch-stamped index scratch no generation stamps are needed here.
type cgScratch struct {
	r1, p1, ap1 []float64
	r2, p2, ap2 []float64
}

var cgScratchPool = sync.Pool{New: func() any { return new(cgScratch) }}

func acquireCGScratch(n int, dual bool) *cgScratch {
	sc := cgScratchPool.Get().(*cgScratch)
	sc.r1 = growF64(sc.r1, n)
	sc.p1 = growF64(sc.p1, n)
	sc.ap1 = growF64(sc.ap1, n)
	if dual {
		sc.r2 = growF64(sc.r2, n)
		sc.p2 = growF64(sc.p2, n)
		sc.ap2 = growF64(sc.ap2, n)
	}
	return sc
}

// cgSys is one conjugate-gradient recurrence: x, r, p, the running
// r·r, and the iteration ledger. CG and CG2 drive the same state
// machine so the single- and dual-RHS paths cannot drift apart.
type cgSys struct {
	x, b, r, p, ap []float64
	rs, bn         float64
	res            Result
	active         bool
}

func (s *cgSys) init(x, b, r, p, ap []float64) {
	s.x, s.b, s.r, s.p, s.ap = x, b, r, p, ap
	for i := range x {
		x[i] = 0
	}
	copy(r, b)
	copy(p, b)
	s.rs = dot(r, r)
	s.bn = norm(b)
	s.res = Result{}
	if s.bn == 0 {
		s.res.Converged = true
		s.active = false
		return
	}
	s.active = true
}

// gate applies CG's per-iteration loop control: stop on maxIter
// exhaustion, or flag convergence when the relative residual is below
// tol (the same check, in the same order, as the classic single-RHS
// loop — keeping CG2 bit-identical to two CG runs).
func (s *cgSys) gate(tol float64, maxIter int) {
	if !s.active {
		return
	}
	if s.res.Iterations >= maxIter {
		s.active = false
		return
	}
	if math.Sqrt(s.rs)/s.bn < tol {
		s.res.Converged = true
		s.active = false
	}
}

// step performs one CG update given ap = A·p already computed.
func (s *cgSys) step() {
	alpha := s.rs / dot(s.p, s.ap)
	x, r, p, ap := s.x, s.r, s.p, s.ap
	for i := range x {
		x[i] += alpha * p[i]
		r[i] -= alpha * ap[i]
	}
	rsNew := dot(r, r)
	beta := rsNew / s.rs
	for i := range p {
		p[i] = r[i] + beta*p[i]
	}
	s.rs = rsNew
	s.res.Iterations++
}

// finish fills the Result's residual fields after the loop ends.
func (s *cgSys) finish(tol float64) Result {
	if s.bn == 0 {
		return s.res
	}
	s.res.Residual = math.Sqrt(s.rs) / s.bn
	if s.res.Residual < tol {
		s.res.Converged = true
	}
	return s.res
}

// CGInto solves A·x = b by conjugate gradients into a caller-provided
// solution vector, allocating nothing once the scratch pool is warm.
// len(x) must equal a.N. Results are bit-identical to CG.
func CGInto(x []float64, a *Sparse, b []float64, tol float64, maxIter int) Result {
	f := a.Freeze()
	sc := acquireCGScratch(f.N, false)
	defer cgScratchPool.Put(sc)
	var s cgSys
	s.init(x, b, sc.r1, sc.p1, sc.ap1)
	for s.active {
		s.gate(tol, maxIter)
		if !s.active {
			break
		}
		f.MatVecInto(s.ap, s.p)
		s.step()
	}
	return s.finish(tol)
}

// CG2Into solves the two systems A·x1 = b1 and A·x2 = b2 with one
// fused conjugate-gradient sweep: per iteration both directions are
// multiplied through A in a single pass over the matrix (shared
// RowPtr/ColIdx/Val traffic), while the alpha/beta recurrences stay
// fully independent — each system converges on its own schedule and
// its solution and Result are bit-identical to a standalone CG call.
// This is the quadratic placer's kernel: the x- and y-systems share A,
// so one sweep feeds both coordinates. len(x1) and len(x2) must equal
// a.N. Allocation-free once the scratch pool is warm.
func CG2Into(x1, x2 []float64, a *Sparse, b1, b2 []float64, tol float64, maxIter int) (Result, Result) {
	f := a.Freeze()
	sc := acquireCGScratch(f.N, true)
	defer cgScratchPool.Put(sc)
	var s1, s2 cgSys
	s1.init(x1, b1, sc.r1, sc.p1, sc.ap1)
	s2.init(x2, b2, sc.r2, sc.p2, sc.ap2)
	for s1.active || s2.active {
		s1.gate(tol, maxIter)
		s2.gate(tol, maxIter)
		switch {
		case s1.active && s2.active:
			f.matVecInto2(s1.ap, s2.ap, s1.p, s2.p)
			s1.step()
			s2.step()
		case s1.active:
			f.MatVecInto(s1.ap, s1.p)
			s1.step()
		case s2.active:
			f.MatVecInto(s2.ap, s2.p)
			s2.step()
		}
	}
	return s1.finish(tol), s2.finish(tol)
}

// CG2 is CG2Into with freshly allocated solution vectors.
func CG2(a *Sparse, b1, b2 []float64, tol float64, maxIter int) ([]float64, []float64, Result, Result) {
	x1 := make([]float64, a.N)
	x2 := make([]float64, a.N)
	r1, r2 := CG2Into(x1, x2, a, b1, b2, tol, maxIter)
	return x1, x2, r1, r2
}
