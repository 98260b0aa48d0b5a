package chol

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/order"
	"repro/internal/sparse"
)

// This file pins the micro-kernel rewrite of the supernodal path: the
// blocked factorization and solves against the up-looking oracle at
// deliberately awkward panel widths (1×1 supernodes, widths on every
// unroll residue), the Analyze dispatch boundary, and the
// bit-determinism of the complex tiled path across GOMAXPROCS.

// TestOracleSupernodalPanelWidths forces panel widths onto every unroll
// tail — width-1 supernodes (each panel a single column, the rank-k
// kernel's scalar path), widths ≡ 1, 2, 3 mod 4, and the default — and
// cross-checks factor entries and solves against the up-looking kernel.
func TestOracleSupernodalPanelWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	a := meshSPD(19, 17)
	n := a.Rows
	sym, ap := order.Analyze(a, order.MinimumDegree)
	fu, err := factorizeUpLooking(ap, sym)
	if err != nil {
		t.Fatal(err)
	}
	lu := denseL(fu)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	ap.MulVec(b, x)
	for _, width := range []int{1, 2, 3, 5, 7, order.DefaultMaxWidth} { // width 1: every supernode 1×1
		ss, err := analyzeSuper(ap, sym, width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if width == 1 && ss.sn.NSuper() != n {
			t.Fatalf("MaxWidth 1: %d supernodes, want %d singletons", ss.sn.NSuper(), n)
		}
		fs, err := ss.factorize(ap, nil)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		ls := denseL(fs)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if d := math.Abs(ls[i][j] - lu[i][j]); d > 1e-11*(1+math.Abs(lu[i][j])) {
					t.Fatalf("width %d: L(%d,%d) = %v vs oracle %v", width, i, j, ls[i][j], lu[i][j])
				}
			}
		}
		got := append([]float64(nil), b...)
		fs.Solve(got)
		for i := range got {
			if math.Abs(got[i]-x[i]) > 1e-8*(1+math.Abs(x[i])) {
				t.Fatalf("width %d: Solve[%d] = %v, want %v", width, i, got[i], x[i])
			}
		}
	}
}

// complexTestSystem builds a permuted D + sE pattern with per-position
// values, the shared fixture of the complex kernel tests.
func complexTestSystem(rng *rand.Rand, n int, s complex128) (*sparse.CSR, *order.Symbolic, func(p int) complex128) {
	d := randomSPD(rng, n, 3*n)
	e := randomSPD(rng, n, n)
	e.Scale(1e-2)
	pattern := sparse.PatternUnion(d, e)
	sym, pat := order.Analyze(pattern, order.MinimumDegree)
	dp := d.PermuteSym(sym.Perm)
	ep := e.PermuteSym(sym.Perm)
	dv := make([]complex128, len(pat.Val))
	for i := 0; i < n; i++ {
		for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
			j := pat.Col[p]
			dv[p] = complex(dp.At(i, j), 0) + s*complex(ep.At(i, j), 0)
		}
	}
	return pat, sym, func(p int) complex128 { return dv[p] }
}

// TestOracleSupernodalComplexTiled pins the tiled complex LDLᵀ path —
// panel widths on every unroll residue of the pair-unrolled complex
// kernels — against the up-looking simplicial oracle, factor solves
// entrywise.
func TestOracleSupernodalComplexTiled(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	n := 140
	pat, sym, val := complexTestSystem(rng, n, complex(0, 37.5))
	fu, err := factorizeComplexUpLooking(pat, val, sym)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	xu := append([]complex128(nil), b...)
	if err := fu.Solve(xu); err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 2, 3, order.DefaultMaxWidth} {
		ss, err := analyzeSuper(pat, sym, width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		fs, err := ss.factorizeComplex(pat, val, nil)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		xs := append([]complex128(nil), b...)
		if err := fs.Solve(xs); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i := range xs {
			if cmplx.Abs(xs[i]-xu[i]) > 1e-8*(1+cmplx.Abs(xu[i])) {
				t.Fatalf("width %d: solve[%d] = %v vs oracle %v", width, i, xs[i], xu[i])
			}
		}
	}
}

// TestOracleSupernodalDispatchBoundary walks the supernodalMinOrder
// threshold at n = 511, 512, 513: Analyze must pick the up-looking
// kernel strictly below 512 and the blocked kernel at and above it, and
// whichever kernel it chose must agree, real and complex, with the
// other kernel run explicitly (the oracle for the chosen one).
func TestOracleSupernodalDispatchBoundary(t *testing.T) {
	if supernodalMinOrder != 512 {
		t.Fatalf("supernodalMinOrder = %d, test assumes 512", supernodalMinOrder)
	}
	rng := rand.New(rand.NewSource(53))
	for _, n := range []int{511, 512, 513} {
		a := randomSPD(rng, n, 3*n)
		sym, ap := order.Analyze(a, order.MinimumDegree)
		an, err := Analyze(ap, sym)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		wantSuper := n >= supernodalMinOrder
		if an.Supernodal() != wantSuper {
			t.Fatalf("n=%d: Analyze picked supernodal=%v, want %v", n, an.Supernodal(), wantSuper)
		}
		f, err := an.Factorize(ap, an.NewWorkspace())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if gotSuper := f.Supernodes() > 0; gotSuper != wantSuper {
			t.Fatalf("n=%d: factor supernodal=%v, want %v", n, gotSuper, wantSuper)
		}
		val := func(p int) complex128 { return complex(ap.Val[p], 0.25*ap.Val[p]) }
		cf, err := an.FactorizeComplex(val, nil)
		if err != nil {
			t.Fatalf("n=%d: complex: %v", n, err)
		}
		// The oracle is the kernel Analyze did not choose.
		var fo *Factor
		var cfo *ComplexFactor
		if wantSuper {
			fo, err = factorizeUpLooking(ap, sym)
			if err == nil {
				cfo, err = factorizeComplexUpLooking(ap, val, sym)
			}
		} else {
			var ss *superSymbolic
			ss, err = analyzeSuper(ap, sym, order.DefaultMaxWidth)
			if err == nil {
				fo, err = ss.factorize(ap, nil)
			}
			if err == nil {
				cfo, err = ss.factorizeComplex(ap, val, nil)
			}
		}
		if err != nil {
			t.Fatalf("n=%d: oracle kernel: %v", n, err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		ap.MulVec(b, x)
		got := append([]float64(nil), b...)
		f.Solve(got)
		want := append([]float64(nil), b...)
		fo.Solve(want)
		cgot := make([]complex128, n)
		cwant := make([]complex128, n)
		for i := range b {
			cgot[i] = complex(b[i], -b[i])
			cwant[i] = cgot[i]
		}
		if err := cf.Solve(cgot); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := cfo.Solve(cwant); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d: solve[%d] = %v chosen kernel vs %v oracle kernel", n, i, got[i], want[i])
			}
			if math.Abs(got[i]-x[i]) > 1e-7*(1+math.Abs(x[i])) {
				t.Fatalf("n=%d: solve[%d] = %v, want %v", n, i, got[i], x[i])
			}
			if cmplx.Abs(cgot[i]-cwant[i]) > 1e-9*(1+cmplx.Abs(cwant[i])) {
				t.Fatalf("n=%d: complex solve[%d] = %v chosen kernel vs %v oracle kernel", n, i, cgot[i], cwant[i])
			}
		}
	}
}

// TestSupernodalComplexDeterministicAcrossGOMAXPROCS pins the complex
// tiled path's determinism contract at GOMAXPROCS ∈ {1, 2, 4, 8}: the
// packed panel values, the diagonal, and a blocked multi-RHS solve must
// be bit-identical at every worker count (one shared superSymbolic, as
// a frequency sweep would use it).
func TestSupernodalComplexDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	n := 160
	pat, sym, val := complexTestSystem(rng, n, complex(0, 61.8))
	ss, err := analyzeSuper(pat, sym, order.DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	const k = 9
	block := make([]complex128, k*n)
	for i := range block {
		block[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	run := func() (*superComplexFactor, []complex128) {
		f, err := ss.factorizeComplex(pat, val, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), block...)
		if err := f.SolveMulti(got, k); err != nil {
			t.Fatal(err)
		}
		return f.super, got
	}
	cbits := func(what string, a, b []complex128) {
		t.Helper()
		for i := range a {
			if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
				math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
				t.Fatalf("%s: entry %d differs bitwise: %v vs %v", what, i, a[i], b[i])
			}
		}
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	f1, x1 := run()
	for _, procs := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		fP, xP := run()
		cbits("complex factor values", f1.val, fP.val)
		cbits("complex diagonal", f1.d, fP.d)
		cbits("complex SolveMulti", x1, xP)
	}
}
