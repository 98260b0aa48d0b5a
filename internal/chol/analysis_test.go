package chol

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/order"
	"repro/internal/sparse"
)

// shiftedResidual returns max_i |(D+sE)x − b|_i for the permuted pair.
func shiftedResidual(dp, ep *sparse.CSR, s complex128, x, b []complex128) float64 {
	worst := 0.0
	for i := 0; i < dp.Rows; i++ {
		acc := -b[i]
		cols, vals := dp.Row(i)
		for p, j := range cols {
			acc += complex(vals[p], 0) * x[j]
		}
		cols, vals = ep.Row(i)
		for p, j := range cols {
			acc += s * complex(vals[p], 0) * x[j]
		}
		if a := cmplx.Abs(acc); a > worst {
			worst = a
		}
	}
	return worst
}

// TestAnalyzeShiftedSimplicialMatchesDense pins the small-order dispatch
// of the shared analysis on the pencil D + sE: below supernodalMinOrder
// it must take the simplicial complex LDLᵀ (nil workspace) and solve
// D+sE exactly as the dense reference does.
func TestAnalyzeShiftedSimplicialMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(25)
		d := randomSPD(rng, n, 2*n)
		e := randomSPD(rng, n, n)
		e.Scale(1e-2)
		s := complex(0, 1+1e2*rng.Float64())
		sym0, pat := order.Analyze(sparse.PatternUnion(d, e), order.MinimumDegree)
		dp := d.PermuteSym(sym0.Perm)
		ep := e.PermuteSym(sym0.Perm)
		sym, _ := order.Analyze(pat, order.Natural)
		sa, err := Analyze(pat, sym)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sa.Supernodal() {
			t.Fatalf("trial %d: order %d must dispatch simplicial", trial, n)
		}
		if ws := sa.NewWorkspace(); ws != nil {
			t.Fatalf("trial %d: simplicial analysis must hand out a nil workspace", trial)
		}
		f, err := sa.FactorizeComplex(func(p int) complex128 {
			i := rowOf(pat, p)
			j := pat.Col[p]
			return complex(dp.At(i, j), 0) + s*complex(ep.At(i, j), 0)
		}, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		x := append([]complex128(nil), b...)
		if err := f.Solve(x); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r := shiftedResidual(dp, ep, s, x, b); r > 1e-8 {
			t.Fatalf("trial %d: residual %g", trial, r)
		}
	}
}

// TestAnalyzeShiftedSupernodalDispatch pins the large-order dispatch:
// at supernodalMinOrder and above the analysis must carry a supernodal
// plan and a reusable workspace, and the blocked complex factorization
// must solve multi-RHS blocks to working precision — the path every
// large multi-point shift reuses with one symbolic analysis.
func TestAnalyzeShiftedSupernodalDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	n := supernodalMinOrder + 37
	d := randomSPD(rng, n, 3*n)
	e := randomSPD(rng, n, n)
	e.Scale(1e-2)
	s := complex(0, 42.5)
	sym0, pat := order.Analyze(sparse.PatternUnion(d, e), order.MinimumDegree)
	dp := d.PermuteSym(sym0.Perm)
	ep := e.PermuteSym(sym0.Perm)
	sym, _ := order.Analyze(pat, order.Natural)
	sa, err := Analyze(pat, sym)
	if err != nil {
		t.Fatal(err)
	}
	if !sa.Supernodal() {
		t.Fatalf("order %d must dispatch supernodal", n)
	}
	ws := sa.NewWorkspace()
	if ws == nil {
		t.Fatal("supernodal analysis must hand out a reusable workspace")
	}
	val := func(p int) complex128 {
		i := rowOf(pat, p)
		j := pat.Col[p]
		return complex(dp.At(i, j), 0) + s*complex(ep.At(i, j), 0)
	}
	for round := 0; round < 2; round++ { // workspace must be reusable
		f, err := sa.FactorizeComplex(val, ws)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		const nrhs = 3
		rhs := make([]complex128, nrhs*n)
		for i := range rhs {
			rhs[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		x := append([]complex128(nil), rhs...)
		if err := f.SolveMulti(x, nrhs); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for c := 0; c < nrhs; c++ {
			if r := shiftedResidual(dp, ep, s, x[c*n:(c+1)*n], rhs[c*n:(c+1)*n]); r > 1e-7 {
				t.Fatalf("round %d: rhs %d residual %g", round, c, r)
			}
		}
	}
}
