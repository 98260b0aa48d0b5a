//go:build !pactcheck

package check

import (
	"testing"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// In the default build the stubs must be inert even on inputs that
// violate every invariant — the release pipeline never pays for or
// panics on a check.
func TestDisabledStubsAreNoOps(t *testing.T) {
	if Enabled {
		t.Fatal("Enabled must be false without the pactcheck tag")
	}
	indef := dense.NewFromRows([][]float64{{1, 2}, {2, 1}})
	asym := dense.NewFromRows([][]float64{{1, 2}, {0, 1}})
	Symmetric("stub", asym, DefaultTol)
	NonNegDef("stub", indef, DefaultTol)
	NonNegDefRel("stub", indef, indef, DefaultTol)
	PoleRealNonneg("stub", []float64{-1, 2})
	ReducedPassive("stub", indef, asym, DefaultTol)
	ub := sparse.NewBuilder(2, 2)
	ub.Add(0, 1, -1)
	SymmetricCSR("stub", ub.Build(), DefaultTol)
	Orthonormal("stub", dense.NewFromRows([][]float64{{2, 2}, {2, 2}}), OrthTol)
}
