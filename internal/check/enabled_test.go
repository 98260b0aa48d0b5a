//go:build pactcheck

package check

import (
	"strings"
	"testing"

	"repro/internal/dense"
	"repro/internal/sparse"
)

func mustPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a check panic containing %q", substr)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("check panicked with %T, want string", r)
		}
		if !strings.HasPrefix(msg, "check: ") {
			t.Fatalf("panic message %q lacks the check: prefix", msg)
		}
		if !strings.Contains(msg, substr) {
			t.Fatalf("panic message %q does not contain %q", msg, substr)
		}
	}()
	f()
}

func TestEnabledConst(t *testing.T) {
	if !Enabled {
		t.Fatal("built with pactcheck but Enabled is false")
	}
}

func TestSymmetric(t *testing.T) {
	m := dense.NewFromRows([][]float64{{2, -1}, {-1, 2}})
	Symmetric("ok", m, DefaultTol)

	bad := dense.NewFromRows([][]float64{{2, -1}, {-0.5, 2}})
	mustPanic(t, "asymmetry", func() { Symmetric("bad", bad, DefaultTol) })

	rect := dense.New(2, 3)
	mustPanic(t, "not square", func() { Symmetric("rect", rect, DefaultTol) })

	// Asymmetry below tolerance is roundoff, not a violation.
	near := dense.NewFromRows([][]float64{{2, -1}, {-1 + 1e-12, 2}})
	Symmetric("near", near, DefaultTol)
}

func TestNonNegDef(t *testing.T) {
	spd := dense.NewFromRows([][]float64{{2, -1}, {-1, 2}})
	NonNegDef("spd", spd, DefaultTol)

	// Singular but non-negative definite: the grounded-through-one-node
	// Laplacian pattern the stamps produce.
	psd := dense.NewFromRows([][]float64{{1, -1}, {-1, 1}})
	NonNegDef("psd", psd, DefaultTol)

	NonNegDef("zero", dense.New(3, 3), DefaultTol)
	NonNegDef("empty", dense.New(0, 0), DefaultTol)

	indef := dense.NewFromRows([][]float64{{1, 2}, {2, 1}})
	mustPanic(t, "not non-negative definite", func() { NonNegDef("indef", indef, DefaultTol) })

	neg := dense.NewFromRows([][]float64{{-1, 0}, {0, 1}})
	mustPanic(t, "not non-negative definite", func() { NonNegDef("neg", neg, DefaultTol) })
}

func TestNonNegDefRel(t *testing.T) {
	// A block that cancels to rounding: −4.4e−16 is indefinite on its
	// own scale but rounding on the scale of the block it came from.
	cancelled := dense.NewFromRows([][]float64{{-4.440892098500626e-16}})
	ref := dense.NewFromRows([][]float64{{1}})
	mustPanic(t, "not non-negative definite", func() { NonNegDef("own scale", cancelled, DefaultTol) })
	NonNegDefRel("input scale", cancelled, ref, DefaultTol)

	// The reference never hides a violation above its own tolerance, and
	// a larger m keeps its own scale.
	bad := dense.NewFromRows([][]float64{{-1e-3}})
	mustPanic(t, "not non-negative definite", func() { NonNegDefRel("real violation", bad, ref, DefaultTol) })
	big := dense.NewFromRows([][]float64{{1e6, 0}, {0, -1}})
	mustPanic(t, "not non-negative definite", func() { NonNegDefRel("own scale larger", big, ref, DefaultTol) })
	NonNegDefRel("zero", dense.New(2, 2), dense.New(2, 2), DefaultTol)
}

func TestPoleRealNonneg(t *testing.T) {
	PoleRealNonneg("ok", []float64{3e-9, 2e-9, 2e-9, 1e-12})
	PoleRealNonneg("empty", nil)

	mustPanic(t, "must be positive", func() { PoleRealNonneg("zero", []float64{1e-9, 0}) })
	mustPanic(t, "must be positive", func() { PoleRealNonneg("neg", []float64{-1e-9}) })
	mustPanic(t, "not sorted", func() { PoleRealNonneg("order", []float64{1e-9, 2e-9}) })
	nan := 0.0
	nan /= nan
	mustPanic(t, "eigenvalue 0", func() { PoleRealNonneg("nan", []float64{nan}) })
}

func TestReducedPassive(t *testing.T) {
	g := dense.NewFromRows([][]float64{{2, -1}, {-1, 2}})
	c := dense.NewFromRows([][]float64{{1, 0}, {0, 1}})
	ReducedPassive("ok", g, c, DefaultTol)

	badC := dense.NewFromRows([][]float64{{-1, 0}, {0, 1}})
	mustPanic(t, "susceptance", func() { ReducedPassive("bad", g, badC, DefaultTol) })
}

func TestSymmetricCSR(t *testing.T) {
	b := sparse.NewBuilder(3, 3)
	b.Add(0, 0, 2)
	b.Add(1, 1, 2)
	b.Add(2, 2, 1)
	b.AddSym(0, 1, -1)
	SymmetricCSR("ok", b.Build(), DefaultTol)

	ub := sparse.NewBuilder(2, 2)
	ub.Add(0, 0, 1)
	ub.Add(1, 1, 1)
	ub.Add(0, 1, -1) // no matching (1,0) entry
	mustPanic(t, "asymmetry", func() { SymmetricCSR("bad", ub.Build(), DefaultTol) })

	mustPanic(t, "not square", func() { SymmetricCSR("rect", sparse.Zero(2, 3), DefaultTol) })
	SymmetricCSR("empty", sparse.Zero(4, 4), DefaultTol)
}

func TestOrthonormal(t *testing.T) {
	id := dense.NewFromRows([][]float64{{1, 0}, {0, 1}, {0, 0}})
	Orthonormal("ok", id, OrthTol)
	Orthonormal("empty", dense.New(5, 0), OrthTol)

	unnorm := dense.NewFromRows([][]float64{{2}, {0}})
	mustPanic(t, "inner product", func() { Orthonormal("unnorm", unnorm, OrthTol) })

	skew := dense.NewFromRows([][]float64{{1, 1}, {0, 0.001}})
	mustPanic(t, "inner product", func() { Orthonormal("skew", skew, OrthTol) })
}
