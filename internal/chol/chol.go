// Package chol implements the sparse factorizations at the heart of the
// PACT flow: a real Cholesky factorization LLᵀ of the internal conductance
// matrix D (Section 3.1 of the paper), and a complex LDLᵀ factorization of
// D + sE sharing the same symbolic structure, used to evaluate the exact
// multiport admittance Y(s) of the unreduced network for verification.
//
// Analyze picks one of two kernels per pattern, by order. Below 512 the
// scalar up-looking kernel computes row k of L from the elimination-tree
// reach of column k of the upper triangle of A, following the classic
// CSparse scheme; at 512 and above the supernodal kernel (super.go)
// factors dense panels on a dependency DAG. No numeric pivoting is
// performed; D is symmetric positive definite by construction (every
// internal node has a DC path to a port), which the factorization
// verifies, and D + jωE is diagonally dominated by D for the frequencies
// of interest.
package chol

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/order"
	"repro/internal/resilience/inject"
	"repro/internal/sparse"
)

// ErrNotPositiveDefinite is returned when a pivot is non-positive; for a
// correctly stamped RC network this means some internal node has no DC
// path to any port (D singular), which the paper assumes away and we
// diagnose.
var ErrNotPositiveDefinite = errors.New("chol: matrix is not positive definite (internal node without DC path to a port?)")

// Factor is a sparse lower-triangular Cholesky factor. It is backed by
// one of two representations: the up-looking kernel's per-column CSC
// storage (diagonal first in every column), or the supernodal kernel's
// packed dense panels. All methods dispatch transparently.
type Factor struct {
	L     *sparse.CSC  // simplicial storage; nil for a supernodal factor
	super *superFactor // supernodal storage; nil for a simplicial factor
}

func (f *Factor) order() int {
	if f.super != nil {
		return f.super.ss.sym.N
	}
	return f.L.Cols
}

// Factorize computes the Cholesky factorization A = LLᵀ of the symmetric
// positive definite matrix A (full pattern CSR) using the symbolic
// analysis sym, which must describe A's pattern exactly: A is the
// permuted matrix order.Analyze returns with sym (sym, ap :=
// order.Analyze(a, method); Factorize(ap, sym)). It is Analyze followed
// by one Analysis.Factorize, for callers that factor a pattern once.
func Factorize(a *sparse.CSR, sym *order.Symbolic) (*Factor, error) {
	an, err := Analyze(a, sym)
	if err != nil {
		return nil, err
	}
	return an.Factorize(a, nil)
}

func factorizeUpLooking(a *sparse.CSR, sym *order.Symbolic) (*Factor, error) {
	n := a.Rows
	if a.Cols != n || sym.N != n {
		return nil, fmt.Errorf("chol: dimension mismatch (matrix %dx%d, symbolic %d)", a.Rows, a.Cols, sym.N)
	}
	upper := a.UpperCSC()
	lnz := sym.LNNZ()
	l := &sparse.CSC{
		Rows: n, Cols: n,
		ColPtr: append([]int(nil), sym.ColPtr...),
		Row:    make([]int, lnz),
		Val:    make([]float64, lnz),
	}
	// nextFree[j] tracks where the next entry of column j goes; the
	// diagonal is reserved at ColPtr[j] and filled when row j is finished.
	nextFree := make([]int, n)
	for j := 0; j < n; j++ {
		nextFree[j] = sym.ColPtr[j] + 1
		l.Row[sym.ColPtr[j]] = j
	}
	x := make([]float64, n)
	s := make([]int, n)
	w := make([]int, n)
	for i := range w {
		w[i] = -1
	}
	for k := 0; k < n; k++ {
		// Scatter column k of the upper triangle of A into x.
		top := order.EReach(upper, k, sym.Parent, s, w)
		for p := upper.ColPtr[k]; p < upper.ColPtr[k+1]; p++ {
			x[upper.Row[p]] = upper.Val[p]
		}
		d := x[k]
		adiag := d // original diagonal, reference for the pivot check
		x[k] = 0
		// Eliminate along the reach in topological order.
		for t := top; t < n; t++ {
			j := s[t]
			lkj := x[j] / l.Val[sym.ColPtr[j]]
			x[j] = 0
			for p := sym.ColPtr[j] + 1; p < nextFree[j]; p++ {
				x[l.Row[p]] -= l.Val[p] * lkj
			}
			d -= lkj * lkj
			q := nextFree[j]
			if q >= sym.ColPtr[j+1] {
				return nil, fmt.Errorf("chol: symbolic column %d overflow; pattern not symmetric?", j)
			}
			l.Row[q] = k
			l.Val[q] = lkj
			nextFree[j]++
		}
		if inject.Enabled {
			// Fault-injection sites (compiled out of release builds): poison
			// the pivot of elimination k, or fail it outright, as if the
			// matrix were singular there.
			d = inject.PoisonValue(inject.CholPoison, k, d)
			if inject.ShouldFail(inject.CholPivot, k) {
				return nil, fmt.Errorf("%w: injected pivot failure at elimination %d", ErrNotPositiveDefinite, k)
			}
		}
		// A pivot that collapsed by 13+ orders of magnitude relative to its
		// original diagonal is numerical noise around a singular matrix
		// (e.g. a floating subnetwork), not a usable value.
		if d <= 0 || d <= 1e-13*adiag || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: pivot %d = %g (diagonal was %g)", ErrNotPositiveDefinite, k, d, adiag)
		}
		l.Val[sym.ColPtr[k]] = math.Sqrt(d)
	}
	return &Factor{L: l}, nil
}

// LSolve solves L y = b in place (b becomes y).
func (f *Factor) LSolve(b []float64) {
	if f.super != nil {
		f.super.lsolve(b)
		return
	}
	sparse.LowerSolveCSC(f.L, b)
}

// LTSolve solves Lᵀ y = b in place.
func (f *Factor) LTSolve(b []float64) {
	if f.super != nil {
		f.super.ltsolve(b)
		return
	}
	sparse.LowerTransposeSolveCSC(f.L, b)
}

// Solve solves A x = b in place using A = LLᵀ.
func (f *Factor) Solve(b []float64) {
	f.LSolve(b)
	f.LTSolve(b)
}

// NNZ returns the number of stored factor entries the solves touch: the
// structural nonzeros of L (as compressed columns for the up-looking
// kernel, as panel trapezoids for the supernodal one).
func (f *Factor) NNZ() int {
	if f.super != nil {
		return f.super.ss.trapNNZ
	}
	return f.L.NNZ()
}

// Supernodes returns the number of supernodal panels, or 0 for a
// simplicial (up-looking) factor.
func (f *Factor) Supernodes() int {
	if f.super != nil {
		return f.super.ss.sn.NSuper()
	}
	return 0
}

// FlopEstimate returns the approximate floating-point operation count
// of the numeric factorization, 2·Σⱼ cⱼ² over the stored column counts.
func (f *Factor) FlopEstimate() float64 {
	if f.super != nil {
		return f.super.ss.flops
	}
	flops := 0.0
	for j := 0; j < f.L.Cols; j++ {
		c := float64(f.L.ColPtr[j+1] - f.L.ColPtr[j])
		flops += 2 * c * c
	}
	return flops
}

// Bytes returns the approximate peak memory footprint of the factor in
// bytes, used by the Table 4 memory accounting. For a supernodal factor
// this counts the packed panel values, the shared symbolic structure
// (the int32 row slab, panel offsets, the precomputed update-edge and
// scatter routing: int32 rel/scat lists plus the fixed per-edge
// records), and the transient numeric-run scratch reported by
// ScratchBytes — the per-worker dense update blocks, DAG run state, and
// solve buffers that earlier accountings missed.
func (f *Factor) Bytes() int64 {
	if f.super != nil {
		ss := f.super.ss
		b := int64(len(f.super.val)) * 8 // panel values
		b += int64(len(ss.rows)) * 4     // int32 row slab (shared with other factors)
		b += int64(len(ss.rowPtr)+len(ss.off)+2*len(ss.sn.Super)) * 8
		b += int64(ss.edgeInts) * 4 // rel + scat int32 storage
		for _, es := range ss.updaters {
			b += int64(len(es)) * 40 // per-edge record incl. slice header
		}
		return b + f.super.scratchBytes
	}
	return int64(f.L.NNZ())*(8+8) + int64(len(f.L.ColPtr))*8
}

// ScratchBytes returns the transient memory of the numeric
// factorization run that produced this factor — worker-owned dense
// update scratch, DAG scheduling state, and the peak per-worker solve
// buffers its multi-RHS solves create — 0 for a simplicial factor
// (whose up-looking scratch is three length-n arrays, counted against
// the matrix, not the factor). Included in Bytes.
func (f *Factor) ScratchBytes() int64 {
	if f.super != nil {
		return f.super.scratchBytes
	}
	return 0
}

// ComplexFactor is a sparse LDLᵀ factorization of a complex symmetric (not
// Hermitian) matrix: A = L D Lᵀ with unit-lower-triangular L and diagonal
// D. It shares the symbolic structure of the real Cholesky of the pattern
// union of its real and imaginary parts.
type ComplexFactor struct {
	L     *sparse.CSC // row indices only; values in LVal
	LVal  []complex128
	D     []complex128
	super *superComplexFactor // supernodal storage; nil for simplicial
}

func (f *ComplexFactor) order() int {
	if f.super != nil {
		return f.super.ss.sym.N
	}
	return f.L.Cols
}

// factorizeComplexUpLooking computes the up-looking LDLᵀ factorization
// of the complex symmetric matrix with the given pattern (CSR, full
// symmetric pattern, already permuted) and entry values supplied by the
// val callback, which receives the position of each stored pattern
// entry. sym must be the symbolic analysis of the same pattern.
//
// The intended use is A(s) = D + sE: the pattern is the ordered
// PatternUnion(D, E) order.Analyze returns, and val(p) = Dval(p) +
// s*Eval(p).
func factorizeComplexUpLooking(pattern *sparse.CSR, val func(p int) complex128, sym *order.Symbolic) (*ComplexFactor, error) {
	n := pattern.Rows
	if pattern.Cols != n || sym.N != n {
		return nil, fmt.Errorf("chol: complex dimension mismatch")
	}
	// Build the upper triangle in CSC with complex values. For a symmetric
	// CSR matrix, column j of the upper triangle is read from row j
	// (columns <= j), preserving original entry positions for val.
	upColPtr := make([]int, n+1)
	var upRow []int
	var upVal []complex128
	for j := 0; j < n; j++ {
		for p := pattern.RowPtr[j]; p < pattern.RowPtr[j+1] && pattern.Col[p] <= j; p++ {
			upRow = append(upRow, pattern.Col[p])
			upVal = append(upVal, val(p))
		}
		upColPtr[j+1] = len(upRow)
	}
	upper := &sparse.CSC{Rows: n, Cols: n, ColPtr: upColPtr, Row: upRow}

	lnz := sym.LNNZ()
	l := &sparse.CSC{Rows: n, Cols: n, ColPtr: append([]int(nil), sym.ColPtr...), Row: make([]int, lnz)}
	lval := make([]complex128, lnz)
	diag := make([]complex128, n)
	nextFree := make([]int, n)
	for j := 0; j < n; j++ {
		nextFree[j] = sym.ColPtr[j] + 1
		l.Row[sym.ColPtr[j]] = j
	}
	x := make([]complex128, n)
	s := make([]int, n)
	w := make([]int, n)
	for i := range w {
		w[i] = -1
	}
	for k := 0; k < n; k++ {
		top := order.EReach(upper, k, sym.Parent, s, w)
		for p := upper.ColPtr[k]; p < upper.ColPtr[k+1]; p++ {
			x[upper.Row[p]] = upVal[p]
		}
		d := x[k]
		x[k] = 0
		for t := top; t < n; t++ {
			j := s[t]
			// Row k of L: with LDLᵀ, the update uses x[j]/d[j] and the raw
			// x[j] for the diagonal correction.
			xj := x[j]
			lkj := xj / diag[j]
			x[j] = 0
			for p := sym.ColPtr[j] + 1; p < nextFree[j]; p++ {
				x[l.Row[p]] -= lval[p] * xj
			}
			d -= lkj * xj
			q := nextFree[j]
			if q >= sym.ColPtr[j+1] {
				return nil, fmt.Errorf("chol: complex symbolic column %d overflow", j)
			}
			l.Row[q] = k
			lval[q] = lkj
			nextFree[j]++
		}
		if inject.Enabled && inject.ShouldFail(inject.CholComplexPivot, k) {
			return nil, fmt.Errorf("chol: injected zero pivot %d in complex LDLᵀ", k)
		}
		if cmplx.Abs(d) == 0 || cmplx.IsNaN(d) {
			return nil, fmt.Errorf("chol: zero pivot %d in complex LDLᵀ", k)
		}
		diag[k] = d
	}
	return &ComplexFactor{L: l, LVal: lval, D: diag}, nil
}

// Solve solves A x = b in place using A = L D Lᵀ. A right-hand side of
// the wrong length is reported as an error (every sibling solve path
// returns typed errors; this one used to panic).
func (f *ComplexFactor) Solve(b []complex128) error {
	n := f.order()
	if len(b) != n {
		return fmt.Errorf("chol: complex solve dimension mismatch: rhs length %d, factor order %d", len(b), n)
	}
	if f.super != nil {
		f.super.solve(b)
		return nil
	}
	// Forward: L z = b (unit diagonal).
	for j := 0; j < n; j++ {
		zj := b[j]
		for p := f.L.ColPtr[j] + 1; p < f.L.ColPtr[j+1]; p++ {
			b[f.L.Row[p]] -= f.LVal[p] * zj
		}
	}
	// Diagonal.
	for j := 0; j < n; j++ {
		b[j] /= f.D[j]
	}
	// Backward: Lᵀ x = w.
	for j := n - 1; j >= 0; j-- {
		s := b[j]
		for p := f.L.ColPtr[j] + 1; p < f.L.ColPtr[j+1]; p++ {
			s -= f.LVal[p] * b[f.L.Row[p]]
		}
		b[j] = s
	}
	return nil
}
