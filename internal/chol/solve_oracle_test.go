package chol

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dense"
	"repro/internal/order"
	"repro/internal/sparse"
)

// This file pins the fused width-1 branch of the real supernodal solves
// against the generic panel loops they replaced: every panel through
// the dense trsv, a cleared accumulator, the gemv kernel and a separate
// scatter or gather pass. The reference loops below are those loops as
// they ran before the branch, reading the same row slab; the production
// solves must agree with them to the bit on every entry.

// lsolveRangeRef is the generic forward solve for RHS columns [lo, hi).
func lsolveRangeRef(sf *superFactor, rhs []float64, n, lo, hi int, buf []float64) {
	ss := sf.ss
	for s := 0; s < ss.sn.NSuper(); s++ {
		c0, w := ss.sn.Super[s], ss.sn.Width(s)
		rows := ss.rowList(s)
		h := len(rows)
		P := sf.panel(s)
		hb := h - w
		for c := lo; c < hi; c++ {
			x := rhs[c*n : (c+1)*n]
			xseg := x[c0 : c0+w]
			dense.TrsvLowerNonUnit(xseg, P, h, w)
			if hb > 0 {
				yb := buf[:hb]
				clear(yb)
				dense.GemvBelowAccum(yb, P, h, w, xseg)
				for i, r := range rows[w:] {
					x[r] -= yb[i]
				}
			}
		}
	}
}

// ltsolveRangeRef is the generic backward solve for RHS columns [lo, hi).
func ltsolveRangeRef(sf *superFactor, rhs []float64, n, lo, hi int, buf []float64) {
	ss := sf.ss
	for s := ss.sn.NSuper() - 1; s >= 0; s-- {
		c0, w := ss.sn.Super[s], ss.sn.Width(s)
		rows := ss.rowList(s)
		h := len(rows)
		P := sf.panel(s)
		hb := h - w
		for c := lo; c < hi; c++ {
			x := rhs[c*n : (c+1)*n]
			xseg := x[c0 : c0+w]
			if hb > 0 {
				yb := buf[:hb]
				for i, r := range rows[w:] {
					yb[i] = x[r]
				}
				dense.GemvBelowTransSub(xseg, P, h, w, yb)
			}
			dense.TrsvLowerTransNonUnit(xseg, P, h, w)
		}
	}
}

// narrowPanelFactor is one named factor of the solve oracle.
type narrowPanelFactor struct {
	name string
	f    *Factor
}

// narrowPanelFactors factors an AMD-ordered 2-D lattice of 576 nodes
// (mostly width-1 panels, the power-grid shape, which it checks) and a
// 3-D lattice of 512 nodes, each at panel-width caps 1, 2, 3, 5 and the
// default 48.
func narrowPanelFactors(t *testing.T) []narrowPanelFactor {
	t.Helper()
	var out []narrowPanelFactor
	for _, lat := range []struct {
		name   string
		a      *sparse.CSR
		mesh2d bool
	}{
		{"mesh2d/24x24", meshSPD(24, 24), true},
		{"mesh3d/8x8x8", meshSPD3(8, 8, 8), false},
	} {
		sym, ap := order.Analyze(lat.a, order.MinimumDegree)
		for _, width := range []int{1, 2, 3, 5, order.DefaultMaxWidth} {
			name := fmt.Sprintf("%s/maxw%d", lat.name, width)
			ss, err := analyzeSuper(ap, sym, width)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			f, err := ss.factorize(ap, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if lat.mesh2d && width == order.DefaultMaxWidth {
				ones := 0
				for s := 0; s < ss.sn.NSuper(); s++ {
					if ss.sn.Width(s) == 1 {
						ones++
					}
				}
				if 2*ones <= ss.sn.NSuper() {
					t.Fatalf("%s: %d of %d panels are width 1, want a majority", name, ones, ss.sn.NSuper())
				}
			}
			out = append(out, narrowPanelFactor{name, f})
		}
	}
	return out
}

// oracleRHS fills an n×nrhs column-major block with the entries that
// can tell the width-1 branch from the generic loops: ordinary values
// mixed with exact +0 and −0 and subnormals small enough that their
// products with factor entries underflow to a signed zero. Every
// fifth column from the third is all +0, every fifth from the fourth
// all −0.
func oracleRHS(rng *rand.Rand, n, nrhs int) []float64 {
	negZero := math.Copysign(0, -1)
	b := make([]float64, n*nrhs)
	for c := 0; c < nrhs; c++ {
		col := b[c*n : (c+1)*n]
		for i := range col {
			switch {
			case c%5 == 2:
				col[i] = 0
			case c%5 == 3:
				col[i] = negZero
			default:
				switch rng.Intn(6) {
				case 0:
					col[i] = 0
				case 1:
					col[i] = negZero
				case 2:
					col[i] = float64(1+rng.Intn(4)) * math.SmallestNonzeroFloat64
					if rng.Intn(2) == 0 {
						col[i] = -col[i]
					}
				default:
					col[i] = rng.NormFloat64()
				}
			}
		}
	}
	return b
}

// requireBits fails on the first entry of got whose bits differ from
// want's.
func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v (%#016x), reference %v (%#016x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestOracleSolveNarrowPanels requires every real supernodal solve —
// LSolve, LTSolve, Solve and their multi-RHS forms — to be
// Float64bits-equal to the generic reference loops, on factors whose
// panels are mostly one column wide and on forced widths 1, 2, 3, 5 and
// 48, for right-hand sides with exact and signed zeros and subnormals,
// at GOMAXPROCS 1 and 4.
func TestOracleSolveNarrowPanels(t *testing.T) {
	factors := narrowPanelFactors(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(26))
		for _, fx := range factors {
			f, sf := fx.f, fx.f.super
			n := f.order()
			buf := make([]float64, sf.ss.maxRows)
			for _, nrhs := range []int{1, 7, 9, 17} {
				rhs := oracleRHS(rng, n, nrhs)
				refL := append([]float64(nil), rhs...)
				lsolveRangeRef(sf, refL, n, 0, nrhs, buf)
				refLT := append([]float64(nil), rhs...)
				ltsolveRangeRef(sf, refLT, n, 0, nrhs, buf)
				refS := append([]float64(nil), refL...)
				ltsolveRangeRef(sf, refS, n, 0, nrhs, buf)
				for _, op := range []struct {
					name  string
					multi func([]float64, int)
					one   func([]float64)
					want  []float64
				}{
					{"LSolve", f.LSolveMulti, f.LSolve, refL},
					{"LTSolve", f.LTSolveMulti, f.LTSolve, refLT},
					{"Solve", f.SolveMulti, f.Solve, refS},
				} {
					what := fmt.Sprintf("procs %d %s nrhs %d %s", procs, fx.name, nrhs, op.name)
					got := append([]float64(nil), rhs...)
					op.multi(got, nrhs)
					requireBits(t, what+"Multi", got, op.want)
					for c := 0; c < nrhs; c++ {
						col := append([]float64(nil), rhs[c*n:(c+1)*n]...)
						op.one(col)
						requireBits(t, fmt.Sprintf("%s column %d", what, c), col, op.want[c*n:(c+1)*n])
					}
				}
			}
		}
	}
}
