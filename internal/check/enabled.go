//go:build pactcheck

package check

import (
	"fmt"
	"math"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// Enabled reports whether the invariant checks are compiled in.
const Enabled = true

func fail(ctx, detail string) {
	panic(fmt.Sprintf("check: %s: %s", ctx, detail))
}

// Symmetric panics unless m is square and |m_ij − m_ji| ≤ tol·scale for
// every entry, where scale is the largest magnitude in m.
func Symmetric(ctx string, m *dense.Mat, tol float64) {
	if m.R != m.C {
		fail(ctx, fmt.Sprintf("matrix is %d×%d, not square", m.R, m.C))
	}
	scale := m.MaxAbs()
	if scale == 0 {
		return
	}
	for i := 0; i < m.R; i++ {
		for j := i + 1; j < m.C; j++ {
			if d := math.Abs(m.At(i, j) - m.At(j, i)); d > tol*scale {
				fail(ctx, fmt.Sprintf("asymmetry |m[%d,%d]−m[%d,%d]| = %g exceeds %g·%g", i, j, j, i, d, tol, scale))
			}
		}
	}
}

// NonNegDef panics unless the symmetric matrix m is non-negative definite
// within tolerance: its smallest eigenvalue must exceed −tol·scale, scale
// being the largest diagonal magnitude. The fast path is a Cholesky probe
// of m + 2·tol·scale·I — if that factors, the bound holds; only when the
// probe fails is the exact eigenvalue computed for the verdict.
func NonNegDef(ctx string, m *dense.Mat, tol float64) {
	NonNegDefRel(ctx, m, m, tol)
}

// NonNegDefRel is NonNegDef with scale the larger of m's and ref's
// largest diagonal magnitude, for an m computed from ref. An update that
// cancels ref — a Schur complement A − QᵀD⁻¹Q that is exactly zero, as
// on a port with no path to ground — leaves only rounding of ref's size,
// which a tolerance scaled by m's own tiny diagonal would call
// indefinite.
func NonNegDefRel(ctx string, m, ref *dense.Mat, tol float64) {
	if m.R != m.C {
		fail(ctx, fmt.Sprintf("matrix is %d×%d, not square", m.R, m.C))
	}
	n := m.R
	if n == 0 {
		return
	}
	scale := math.Max(definitenessScale(m), definitenessScale(ref))
	if scale == 0 {
		return // the zero matrix is non-negative definite
	}
	probe := m.Clone()
	shift := 2 * tol * scale
	for i := 0; i < n; i++ {
		probe.Add(i, i, shift)
	}
	if dense.Cholesky(probe) == nil {
		return
	}
	// The probe is inconclusive near the tolerance boundary; decide with
	// the exact smallest eigenvalue.
	vals, _, err := dense.SymEig(m.Clone(), false)
	if err != nil {
		fail(ctx, fmt.Sprintf("eigensolve failed while verifying definiteness: %v", err))
	}
	min := vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
	}
	if min < -tol*scale {
		fail(ctx, fmt.Sprintf("matrix is not non-negative definite: λ_min = %g < %g", min, -tol*scale))
	}
}

// definitenessScale is the largest diagonal magnitude of m, or its
// largest entry magnitude when the diagonal is zero.
func definitenessScale(m *dense.Mat) float64 {
	scale := 0.0
	for i := 0; i < m.R; i++ {
		if d := math.Abs(m.At(i, i)); d > scale {
			scale = d
		}
	}
	if scale == 0 {
		scale = m.MaxAbs()
	}
	return scale
}

// PoleRealNonneg panics unless every retained eigenvalue of E′ is finite,
// strictly positive (each maps to a real negative pole at −1/λ), and the
// list is sorted descending — the contract of the pole analysis.
func PoleRealNonneg(ctx string, lambda []float64) {
	for i, l := range lambda {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			fail(ctx, fmt.Sprintf("eigenvalue %d is %g", i, l))
		}
		if l <= 0 {
			fail(ctx, fmt.Sprintf("eigenvalue %d is %g; retained λ must be positive (pole −1/λ real and negative)", i, l))
		}
		if i > 0 && l > lambda[i-1] {
			fail(ctx, fmt.Sprintf("eigenvalues not sorted descending at %d: %g > %g", i, l, lambda[i-1]))
		}
	}
}

// ReducedPassive panics unless the realized conductance and susceptance
// matrices of a reduced model are symmetric and non-negative definite —
// the necessary-and-sufficient passivity condition for RC multiports.
func ReducedPassive(ctx string, g, c *dense.Mat, tol float64) {
	Symmetric(ctx+" (conductance)", g, tol)
	Symmetric(ctx+" (susceptance)", c, tol)
	NonNegDef(ctx+" (conductance)", g, tol)
	NonNegDef(ctx+" (susceptance)", c, tol)
}

// SymmetricCSR panics unless the sparse matrix a is square and
// numerically symmetric within tol·scale (scale = largest entry
// magnitude). Stamping is the one place the pipeline builds matrices
// entry by entry, so an unpaired AddSym shows up here first.
func SymmetricCSR(ctx string, a *sparse.CSR, tol float64) {
	if a.Rows != a.Cols {
		fail(ctx, fmt.Sprintf("matrix is %d×%d, not square", a.Rows, a.Cols))
	}
	scale := 0.0
	for _, v := range a.Val {
		if av := math.Abs(v); av > scale {
			scale = av
		}
	}
	if scale == 0 {
		return
	}
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for p, j := range cols {
			if d := math.Abs(vals[p] - a.At(j, i)); d > tol*scale {
				fail(ctx, fmt.Sprintf("asymmetry |a[%d,%d]−a[%d,%d]| = %g exceeds %g·%g", i, j, j, i, d, tol, scale))
			}
		}
	}
}

// Orthonormal panics unless the columns of v are pairwise orthonormal
// within tol: |vᵢᵀvⱼ − δᵢⱼ| ≤ tol.
func Orthonormal(ctx string, v *dense.Mat, tol float64) {
	n, k := v.R, v.C
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += v.At(i, a) * v.At(i, b)
			}
			want := 0.0
			if a == b {
				want = 1.0
			}
			if d := math.Abs(s - want); d > tol {
				fail(ctx, fmt.Sprintf("columns %d,%d have inner product %g (want %g within %g)", a, b, s, want, tol))
			}
		}
	}
}
