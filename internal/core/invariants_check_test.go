//go:build pactcheck

package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/check"
	"repro/internal/dense"
	"repro/internal/sparse"
)

// meshSystemForCheck stamps a 3-D substrate-style RC lattice directly
// through the sparse builders (netgen/stamp would be an import cycle
// from here): REdge-conductance lattice edges, surface capacitors on the
// top face, a resistive back-plane contact on the bottom face, and the
// first nports top-surface nodes as ports.
func meshSystemForCheck(t *testing.T, nx, ny, nz, nports int) *System {
	t.Helper()
	n := nx * ny * nz
	idx := func(x, y, z int) int { return x + nx*(y+ny*z) }
	gb := sparse.NewBuilder(n, n)
	cb := sparse.NewBuilder(n, n)
	const gEdge = 1.0 / 630.0
	edge := func(i, j int) {
		gb.Add(i, i, gEdge)
		gb.Add(j, j, gEdge)
		gb.AddSym(i, j, -gEdge)
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := idx(x, y, z)
				if x+1 < nx {
					edge(i, idx(x+1, y, z))
				}
				if y+1 < ny {
					edge(i, idx(x, y+1, z))
				}
				if z+1 < nz {
					edge(i, idx(x, y, z+1))
				}
				if z == 0 {
					cb.Add(i, i, 30e-15)
				}
				if z == nz-1 {
					gb.Add(i, i, gEdge/50) // back-plane contact
				}
			}
		}
	}
	ports := make([]int, nports)
	for i := range ports {
		ports[i] = i // top-surface nodes come first in the linearization
	}
	sys, err := Partition(gb.Build(), cb.Build(), ports)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestTransform2RealizedMatricesStayPassive runs the full reduction over
// bench-style mesh sizes on both eigensolver paths and asserts the
// Section 3 invariant: the realized Ĝ and Ĉ of the reduced model remain
// symmetric and non-negative definite. Built with -tags pactcheck, the
// wired-in invariant layer additionally verifies every intermediate
// (Transform1 port blocks, retained eigenvalues, Ritz orthonormality)
// inside the Reduce call itself.
func TestTransform2RealizedMatricesStayPassive(t *testing.T) {
	if !check.Enabled {
		t.Fatal("this file must be built with -tags pactcheck")
	}
	cases := []struct {
		nx, ny, nz, m  int
		fmax           float64
		denseThreshold int
	}{
		{4, 4, 3, 4, 3e9, 1000},  // dense eigensolver path
		{6, 6, 4, 8, 10e9, 1000}, // dense path, cutoff high enough to keep several poles
		{6, 6, 4, 8, 10e9, -1},   // LASO path on the same system
		{8, 8, 5, 12, 3e9, -1},   // larger mesh, LASO
	}
	for _, tc := range cases {
		tc := tc
		name := fmt.Sprintf("%dx%dx%d_m%d_dt%d", tc.nx, tc.ny, tc.nz, tc.m, tc.denseThreshold)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sys := meshSystemForCheck(t, tc.nx, tc.ny, tc.nz, tc.m)
			model, stats, err := Reduce(sys, Options{
				FMax: tc.fmax, Tol: 0.05, DenseThreshold: tc.denseThreshold,
			})
			if err != nil {
				t.Fatal(err)
			}
			g, c := model.Matrices()
			const tol = 1e-8
			for i := 0; i < g.R; i++ {
				for j := i + 1; j < g.C; j++ {
					if g.At(i, j) != g.At(j, i) {
						t.Fatalf("Ĝ[%d,%d] = %g but Ĝ[%d,%d] = %g", i, j, g.At(i, j), j, i, g.At(j, i))
					}
					if c.At(i, j) != c.At(j, i) {
						t.Fatalf("Ĉ[%d,%d] = %g but Ĉ[%d,%d] = %g", i, j, c.At(i, j), j, i, c.At(j, i))
					}
				}
			}
			if !dense.IsNonNegDefinite(g, tol) {
				t.Fatalf("realized Ĝ lost non-negative definiteness (%d ports, %d poles)", model.M, model.K())
			}
			if !dense.IsNonNegDefinite(c, tol) {
				t.Fatalf("realized Ĉ lost non-negative definiteness (%d ports, %d poles)", model.M, model.K())
			}
			if !model.CheckPassive(tol) {
				t.Fatal("model.CheckPassive disagrees with the direct matrix checks")
			}
			t.Logf("%s: kept %d poles of %d internal nodes", name, stats.PolesFound, stats.Internal)
		})
	}
}

// TestTransform1UngroundedChainPassesNonNegDef is the regression test
// for a false positive of the port-block definiteness checks. A one-port
// RC chain with no path to ground has A′ = A − QᵀX = 0 in exact
// arithmetic, so its computed A′ is pure rounding (−4.4e−16 here). A
// tolerance scaled by A′'s own diagonal called that indefinite; scaled
// by the input block A it came from, rounding passes.
func TestTransform1UngroundedChainPassesNonNegDef(t *testing.T) {
	for _, nn := range []int{5, 13, 40} {
		st := newRCStamper(nn)
		for i := 0; i+1 < nn; i++ {
			st.resistor(i, i+1, math.Pow(10, 2*float64(i)/float64(nn-1)))
		}
		for i := 0; i < nn; i++ {
			st.capacitor(i, 1)
		}
		sys := st.system(t, []int{0})
		tr, _, err := Transform1(sys, Options{FMax: 0.05})
		if err != nil {
			t.Fatalf("nn=%d: Transform1: %v", nn, err)
		}
		if a := math.Abs(tr.APrime.At(0, 0)); a > 1e-12 {
			t.Fatalf("nn=%d: A′ = %g, want the rounding of an exact 0", nn, tr.APrime.At(0, 0))
		}
		if _, _, err := Reduce(sys, Options{FMax: 0.05}); err != nil {
			t.Fatalf("nn=%d: Reduce: %v", nn, err)
		}
	}
}
