package dense_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/stamp"
)

// TestSymEigAboveCircuitSpectra runs the selected-pair oracle on the E′
// matrices the pole analysis actually solves: the golden clock tree,
// whose symmetric branches give near-degenerate pole pairs, and the
// 256-port wide-band bench, whose graded spectrum chains hundreds of
// eigenvalues into one cluster at dstein's tolerance. Each is checked
// at its own λ_c and with every pair selected.
func TestSymEigAboveCircuitSpectra(t *testing.T) {
	if testing.Short() {
		t.Skip("dense 320-node eigensolves are slow under -short")
	}
	clock, clockC := circuitEPrime(t, func() (*netlist.Deck, []string, error) {
		d, _, err := netgen.ClockTree(netgen.ClockTreeOpts{Levels: 7, RSeg: 2.5, CSeg: 4e-15, NLeafPorts: 8})
		return d, nil, err
	}, 1e11)
	wide, wideC := wideBandEPrime(t)
	for _, fx := range []struct {
		name    string
		a       *dense.Mat
		lambdaC float64
	}{{"clocktree", clock, clockC}, {"wideband256", wide, wideC}} {
		dense.VerifySelected(t, fx.name, fx.a, fx.lambdaC)
		dense.VerifySelected(t, fx.name, fx.a, math.Inf(-1))
	}
}

// circuitEPrime extracts deck, runs Transform 1 at fmax (Tol 5%) and
// returns the explicit E′ with its λ_c.
func circuitEPrime(t testing.TB, deck func() (*netlist.Deck, []string, error), fmax float64) (*dense.Mat, float64) {
	t.Helper()
	d, ports, err := deck()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := stamp.Extract(d, ports...)
	if err != nil {
		t.Fatal(err)
	}
	tr, stats, err := core.Transform1(ex.Sys, core.Options{FMax: fmax, Tol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return explicit(tr.EOp()), stats.LambdaC
}

// wideBandEPrime is E′ of the 256-port wide-band bench at 20 GHz: 320
// internal nodes, 119 eigenvalues at or above λ_c.
func wideBandEPrime(t testing.TB) (*dense.Mat, float64) {
	return circuitEPrime(t, func() (*netlist.Deck, []string, error) {
		return netgen.WideBand(netgen.WideBandPreset(256))
	}, 2e10)
}

// explicit forms the symmetric matrix of op column by column from unit
// vectors, mirroring the upper triangle as the dense eigenpath does.
func explicit(op interface {
	Dim() int
	Apply(dst, src []float64)
}) *dense.Mat {
	n := op.Dim()
	a := dense.New(n, n)
	src := make([]float64, n)
	dst := make([]float64, n)
	for j := 0; j < n; j++ {
		src[j] = 1
		op.Apply(dst, src)
		src[j] = 0
		for i := 0; i <= j; i++ {
			a.SetSym(i, j, dst[i])
		}
	}
	return a
}
