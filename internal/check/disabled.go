//go:build !pactcheck

package check

import (
	"repro/internal/dense"
	"repro/internal/sparse"
)

// Enabled reports whether the invariant checks are compiled in. In the
// default build it is a false constant, so guarded call sites are
// eliminated as dead code.
const Enabled = false

// Symmetric is a no-op unless built with -tags pactcheck.
func Symmetric(ctx string, m *dense.Mat, tol float64) {}

// NonNegDef is a no-op unless built with -tags pactcheck.
func NonNegDef(ctx string, m *dense.Mat, tol float64) {}

// NonNegDefRel is a no-op unless built with -tags pactcheck.
func NonNegDefRel(ctx string, m, ref *dense.Mat, tol float64) {}

// PoleRealNonneg is a no-op unless built with -tags pactcheck.
func PoleRealNonneg(ctx string, lambda []float64) {}

// ReducedPassive is a no-op unless built with -tags pactcheck.
func ReducedPassive(ctx string, g, c *dense.Mat, tol float64) {}

// SymmetricCSR is a no-op unless built with -tags pactcheck.
func SymmetricCSR(ctx string, a *sparse.CSR, tol float64) {}

// Orthonormal is a no-op unless built with -tags pactcheck.
func Orthonormal(ctx string, v *dense.Mat, tol float64) {}
