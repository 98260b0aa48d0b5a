package core_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/stamp"
)

// TestNoPoleMissedAboveCutoff: with no MaxPoles cap, Reduce keeps
// every eigenvalue of the pencil (E, D) at or above λ_c, the paper's
// pole criterion, on generated networks of a few hundred internal nodes
// at realistic band limits. The dense eigensolve counts the pencil
// spectrum above λ_c; a Lanczos run that stops before every such pole
// has emerged keeps fewer. The two-ladder fixture doubles every pole,
// so it also fails a run that stops before the late copies emerge. Each
// fixture keeps every pencil eigenvalue at least 1% away from λ_c, so
// roundoff cannot move the count.
func TestNoPoleMissedAboveCutoff(t *testing.T) {
	t.Parallel()
	mesh := func() (*netlist.Deck, []string, error) {
		return netgen.Mesh3D(netgen.MeshOpts{NX: 8, NY: 8, NZ: 5, REdge: 630, CSurf: 30e-15, NPorts: 4})
	}
	grid := func() (*netlist.Deck, []string, error) {
		return netgen.PowerGrid(netgen.PowerGridOpts{NX: 20, NY: 20, RSeg: 0.8, CNode: 60e-15, NPorts: 4})
	}
	ladder := func() (*netlist.Deck, []string, error) {
		return netgen.Ladder(300, 250, 1.35e-12), nil, nil
	}
	// Two identical, disjoint ladders: every pole is doubled, and the
	// second copy of each emerges only through rounding, after the first
	// has converged, so the run must not stop before it does.
	twoLadders := func() (*netlist.Deck, []string, error) {
		var b strings.Builder
		b.WriteString("two identical rc ladders\n")
		const nseg, rtot, ctot = 100, 250.0, 1.35e-12
		for _, l := range []string{"a", "b"} {
			fmt.Fprintf(&b, "i%s1 %s1 0 dc 0\ni%s2 %s2 0 dc 0\n", l, l, l, l)
			prev := l + "1"
			for i := 1; i <= nseg; i++ {
				node := fmt.Sprintf("%sn%d", l, i)
				if i == nseg {
					node = l + "2"
				}
				fmt.Fprintf(&b, "r%s%d %s %s %g\nc%s%d %s 0 %g\n", l, i, prev, node, rtot/nseg, l, i, node, ctot/nseg)
				prev = node
			}
		}
		b.WriteString(".end\n")
		deck, err := netlist.ParseString(b.String())
		return deck, nil, err
	}
	for _, fx := range []struct {
		name string
		deck func() (*netlist.Deck, []string, error)
		fmax float64
	}{
		{"ladder300", ladder, 6e10},
		{"twoladders100", twoLadders, 6e10},
		{"mesh8x8x5", mesh, 6e9},
		{"grid20x20", grid, 1.5e11},
	} {
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			deck, ports, err := fx.deck()
			if err != nil {
				t.Fatal(err)
			}
			ex, err := stamp.Extract(deck, ports...)
			if err != nil {
				t.Fatal(err)
			}
			sys := ex.Sys
			model, stats, err := core.Reduce(sys, core.Options{FMax: fx.fmax, Tol: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			if stats.DenseEig {
				t.Fatalf("%d internal nodes took the dense eigenpath; the fixture must exercise Lanczos", sys.N)
			}
			pencil := core.GenEig(t, dense.NewFromRows(sys.E.Dense()), dense.NewFromRows(sys.D.Dense()))
			lc := stats.LambdaC
			want := 0
			for _, lam := range pencil {
				if math.Abs(lam-lc) < 0.01*lc {
					t.Fatalf("pencil eigenvalue %g within 1%% of λ_c = %g; pick another FMax", lam, lc)
				}
				if lam >= lc {
					want++
				}
			}
			t.Logf("n=%d λ_c=%g poles kept %d, pencil above λ_c %d, Lanczos iterations %d",
				sys.N, lc, len(model.Lambda), want, stats.LanczosIters)
			if len(model.Lambda) != want {
				t.Fatalf("kept %d poles, the pencil has %d eigenvalues ≥ λ_c = %g", len(model.Lambda), want, lc)
			}
		})
	}
}
