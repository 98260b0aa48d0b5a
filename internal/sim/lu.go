// Package sim is the SPICE-class circuit simulator substrate used to
// evaluate PACT reductions the way the paper evaluates them with HSPICE:
// DC operating point (Newton–Raphson with gmin and source stepping),
// transient analysis (trapezoidal integration with a backward-Euler
// start), and small-signal AC sweeps. Devices: resistors, capacitors,
// independent V/I sources with PULSE/SIN/PWL waveforms, and level-1
// MOSFETs with body effect and constant junction/overlap capacitances.
//
// The linear solver is a sparse left-looking Gilbert–Peierls LU with
// threshold partial pivoting and minimum-degree column preordering,
// implemented once, generically, for float64 (DC/transient) and
// complex128 (AC).
package sim

import (
	"fmt"

	"repro/internal/order"
	"repro/internal/resilience/inject"
	"repro/internal/sparse"
)

// Numeric is the scalar field of the solver.
type Numeric interface {
	~float64 | ~complex128
}

// SparseLU is an LU factorization P A Q = L U of a sparse matrix held in
// CSC form, produced by LUFactor. L has a unit diagonal stored first in
// each column; U has its diagonal stored last.
type SparseLU[T Numeric] struct {
	N      int
	Lp, Li []int
	Lx     []T
	Up, Ui []int
	Ux     []T
	Pinv   []int // original row -> pivot position
	Q      []int // factor column k holds column Q[k] of A
}

// LUFactor computes the factorization of the n×n matrix given in CSC form
// (colPtr, rowIdx, vals), with column preordering q (nil for natural) and
// magnitude function abs. diagTol in (0,1] enables threshold diagonal
// preference: the diagonal entry is picked as pivot when its magnitude is
// at least diagTol times the column maximum, trading a little stability
// for a lot of sparsity on MNA matrices.
func LUFactor[T Numeric](n int, colPtr, rowIdx []int, vals []T, q []int, abs func(T) float64, diagTol float64) (*SparseLU[T], error) {
	if q == nil {
		q = sparse.IdentityPerm(n)
	}
	lu := &SparseLU[T]{
		N:  n,
		Lp: make([]int, n+1),
		Up: make([]int, n+1),
		Q:  q,
	}
	pinv := make([]int, n)
	for i := range pinv {
		pinv[i] = -1
	}
	x := make([]T, n)
	xi := make([]int, n)    // reach pattern
	stack := make([]int, n) // DFS node stack
	pstack := make([]int, n)
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}

	for k := 0; k < n; k++ {
		col := q[k]
		// --- symbolic: reach of A(:,col) through the graph of L --------
		top := n
		for p := colPtr[col]; p < colPtr[col+1]; p++ {
			i := rowIdx[p]
			if mark[i] == k {
				continue
			}
			// Iterative DFS from i.
			head := 0
			stack[0] = i
			for head >= 0 {
				node := stack[head]
				if mark[node] != k {
					mark[node] = k
					if pinv[node] < 0 {
						pstack[head] = 0 // no children
					} else {
						pstack[head] = lu.Lp[pinv[node]] + 1 // skip unit diagonal
					}
				}
				done := true
				if pinv[node] >= 0 {
					end := lu.Lp[pinv[node]+1]
					for pp := pstack[head]; pp < end; pp++ {
						child := lu.Li[pp]
						if mark[child] != k {
							pstack[head] = pp + 1
							head++
							stack[head] = child
							done = false
							break
						}
					}
				}
				if done {
					head--
					top--
					xi[top] = node
				}
			}
		}
		// --- numeric: x = L \ A(:,col) ---------------------------------
		for p := top; p < n; p++ {
			x[xi[p]] = 0
		}
		for p := colPtr[col]; p < colPtr[col+1]; p++ {
			x[rowIdx[p]] = vals[p]
		}
		for px := top; px < n; px++ {
			i := xi[px]
			j := pinv[i]
			if j < 0 {
				continue
			}
			xj := x[i]
			if xj == 0 {
				continue
			}
			for p := lu.Lp[j] + 1; p < lu.Lp[j+1]; p++ {
				x[lu.Li[p]] -= lu.Lx[p] * xj
			}
		}
		// --- pivot ------------------------------------------------------
		ipiv := -1
		maxAbs := 0.0
		for p := top; p < n; p++ {
			i := xi[p]
			if pinv[i] >= 0 {
				continue
			}
			if t := abs(x[i]); t > maxAbs {
				maxAbs = t
				ipiv = i
			}
		}
		if inject.Enabled && inject.ShouldFail(inject.SimSparseLUPivot, k) {
			ipiv = -1
		}
		if ipiv < 0 || maxAbs == 0 {
			return nil, fmt.Errorf("sim: matrix structurally or numerically singular at column %d", col)
		}
		if diagTol > 0 && pinv[col] < 0 && col != ipiv {
			if t := abs(x[col]); t >= diagTol*maxAbs && t > 0 {
				ipiv = col
			}
		}
		pivot := x[ipiv]
		pinv[ipiv] = k
		// --- store column k of L (unit diag first) and U (diag last) ----
		lu.Li = append(lu.Li, ipiv)
		lu.Lx = append(lu.Lx, 1)
		for p := top; p < n; p++ {
			i := xi[p]
			switch {
			case pinv[i] < 0:
				if x[i] != 0 {
					lu.Li = append(lu.Li, i)
					lu.Lx = append(lu.Lx, x[i]/pivot)
				}
			case i != ipiv:
				lu.Ui = append(lu.Ui, pinv[i])
				lu.Ux = append(lu.Ux, x[i])
			}
			x[i] = 0
		}
		lu.Ui = append(lu.Ui, k)
		lu.Ux = append(lu.Ux, pivot)
		lu.Lp[k+1] = len(lu.Li)
		lu.Up[k+1] = len(lu.Ux)
	}
	// Remap L's row indices into pivot space so the triangular solves are
	// plain.
	for p := range lu.Li {
		lu.Li[p] = pinv[lu.Li[p]]
	}
	lu.Pinv = pinv
	return lu, nil
}

// Solve solves A x = b; the solution is returned in b.
func (lu *SparseLU[T]) Solve(b []T) {
	n := lu.N
	if len(b) != n {
		//lint:ignore panicpolicy dimension mismatch is a programmer error, and Solve sits on the per-timestep hot path where an error return would be dead weight
		panic("sim: LU solve dimension mismatch")
	}
	x := make([]T, n)
	for i := 0; i < n; i++ {
		x[lu.Pinv[i]] = b[i]
	}
	// L y = Pb (unit diagonal first in each column).
	for j := 0; j < n; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := lu.Lp[j] + 1; p < lu.Lp[j+1]; p++ {
			x[lu.Li[p]] -= lu.Lx[p] * xj
		}
	}
	// U z = y (diagonal last in each column).
	for j := n - 1; j >= 0; j-- {
		x[j] /= lu.Ux[lu.Up[j+1]-1]
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := lu.Up[j]; p < lu.Up[j+1]-1; p++ {
			x[lu.Ui[p]] -= lu.Ux[p] * xj
		}
	}
	// Undo the column permutation.
	for k := 0; k < n; k++ {
		b[lu.Q[k]] = x[k]
	}
}

// NNZ returns the entry count of L plus U.
func (lu *SparseLU[T]) NNZ() int { return len(lu.Lx) + len(lu.Ux) }

// luColumnOrder computes a fill-reducing column preorder from the
// symmetric pattern of A + Aᵀ.
func luColumnOrder(n int, colPtr, rowIdx []int) []int {
	b := sparse.NewBuilder(n, n)
	for j := 0; j < n; j++ {
		b.Add(j, j, 1)
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			i := rowIdx[p]
			if i != j {
				b.AddSym(i, j, 1)
			}
		}
	}
	return order.AMD(b.Build())
}
