package chol

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/order"
	"repro/internal/sparse"
)

// meshSPD builds the conductance matrix of an nx×ny resistor mesh with
// every node grounded through a small conductance — strictly diagonally
// dominant, hence SPD, and structurally the matrix class the supernodal
// kernel is built for.
func meshSPD(nx, ny int) *sparse.CSR {
	b := sparse.NewBuilder(nx*ny, nx*ny)
	idx := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := idx(x, y)
			deg := 0.0
			if x+1 < nx {
				b.AddSym(i, idx(x+1, y), -1)
				deg += 1
			}
			if x > 0 {
				deg += 1
			}
			if y+1 < ny {
				b.AddSym(i, idx(x, y+1), -1)
				deg += 1
			}
			if y > 0 {
				deg += 1
			}
			b.Add(i, i, deg+0.1)
		}
	}
	return b.Build()
}

// factorizeSupernodal runs the supernodal kernel at any order, the
// cross-check partner of factorizeUpLooking.
func factorizeSupernodal(a *sparse.CSR, sym *order.Symbolic) (*Factor, error) {
	ss, err := analyzeSuper(a, sym, order.DefaultMaxWidth)
	if err != nil {
		return nil, err
	}
	return ss.factorize(a, nil)
}

// denseL reconstructs the dense lower factor from either representation.
func denseL(f *Factor) [][]float64 {
	n := f.order()
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	if f.super == nil {
		for j := 0; j < n; j++ {
			for p := f.L.ColPtr[j]; p < f.L.ColPtr[j+1]; p++ {
				l[f.L.Row[p]][j] = f.L.Val[p]
			}
		}
		return l
	}
	ss := f.super.ss
	for s := 0; s < ss.sn.NSuper(); s++ {
		c0, w := ss.sn.Super[s], ss.sn.Width(s)
		rows := ss.rowList(s)
		h := len(rows)
		P := f.super.panel(s)
		for j := 0; j < w; j++ {
			for i := j; i < h; i++ {
				l[rows[i]][c0+j] = P[j*h+i]
			}
		}
	}
	return l
}

// TestSupernodalMatchesUpLooking cross-checks the blocked kernel against
// the up-looking oracle on random SPD matrices under every ordering:
// LLᵀ must reconstruct A, the two factors must agree entrywise to tight
// tolerance, and the stats must be mutually consistent (trapezoid
// entries = structural nonzeros + amalgamated fill).
func TestSupernodalMatchesUpLooking(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		n := 60 + rng.Intn(200)
		a := randomSPD(rng, n, 4*n)
		for _, m := range []order.Method{order.Natural, order.RCM, order.MinimumDegree} {
			sym, ap := order.Analyze(a, m)
			fs, err := factorizeSupernodal(ap, sym)
			if err != nil {
				t.Fatalf("trial %d %v: supernodal: %v", trial, m, err)
			}
			fu, err := factorizeUpLooking(ap, sym)
			if err != nil {
				t.Fatalf("trial %d %v: up-looking: %v", trial, m, err)
			}
			if fs.Supernodes() == 0 || fu.Supernodes() != 0 {
				t.Fatalf("trial %d %v: strategy dispatch wrong: %d / %d supernodes",
					trial, m, fs.Supernodes(), fu.Supernodes())
			}
			if got, want := fs.NNZ(), fu.NNZ(); got != want {
				t.Fatalf("trial %d %v: trapezoid entries %d != structural %d", trial, m, got, want)
			}
			ls, lu := denseL(fs), denseL(fu)
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					if d := math.Abs(ls[i][j] - lu[i][j]); d > 1e-11*(1+math.Abs(lu[i][j])) {
						t.Fatalf("trial %d %v: L(%d,%d) = %v supernodal vs %v up-looking",
							trial, m, i, j, ls[i][j], lu[i][j])
					}
				}
			}
			// Solve round trip through the supernodal factor.
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			b := make([]float64, n)
			ap.MulVec(b, x)
			fs.Solve(b)
			for i := range x {
				if math.Abs(b[i]-x[i]) > 1e-8*(1+math.Abs(x[i])) {
					t.Fatalf("trial %d %v: supernodal Solve[%d] = %v, want %v", trial, m, i, b[i], x[i])
				}
			}
		}
	}
}

func bitsEqual(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: entry %d differs bitwise: %v vs %v", what, i, a[i], b[i])
		}
	}
}

// TestSupernodalDeterministicAcrossGOMAXPROCS pins the determinism
// contract of the parallel panel schedule: the packed factor values and
// a solve through them must be bit-identical at every worker count.
func TestSupernodalDeterministicAcrossGOMAXPROCS(t *testing.T) {
	a := meshSPD(28, 31)
	sym, ap := order.Analyze(a, order.MinimumDegree)
	n := a.Rows
	run := func() ([]float64, []float64) {
		f, err := factorizeSupernodal(ap, sym)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(float64(3*i + 1))
		}
		f.Solve(x)
		return f.super.val, x
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	val1, x1 := run()
	for _, procs := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		valP, xP := run()
		bitsEqual(t, "factor values", val1, valP)
		bitsEqual(t, "solve result", x1, xP)
	}
}

// TestSolveMultiBitIdenticalToSequential checks the blocked multi-RHS
// solves against column-by-column single solves, bitwise, for both
// kernels and at several worker counts.
func TestSolveMultiBitIdenticalToSequential(t *testing.T) {
	a := meshSPD(17, 23)
	sym, ap := order.Analyze(a, order.RCM)
	n := a.Rows
	const k = 13
	rng := rand.New(rand.NewSource(42))
	block := make([]float64, k*n)
	for i := range block {
		block[i] = rng.NormFloat64()
	}
	for _, kernel := range []func(*sparse.CSR, *order.Symbolic) (*Factor, error){factorizeUpLooking, factorizeSupernodal} {
		f, err := kernel(ap, sym)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]float64(nil), block...)
		for c := 0; c < k; c++ {
			f.Solve(want[c*n : (c+1)*n])
		}
		wantL := append([]float64(nil), block...)
		for c := 0; c < k; c++ {
			f.LSolve(wantL[c*n : (c+1)*n])
		}
		wantLT := append([]float64(nil), block...)
		for c := 0; c < k; c++ {
			f.LTSolve(wantLT[c*n : (c+1)*n])
		}
		for _, procs := range []int{1, 2, 4, 8} {
			old := runtime.GOMAXPROCS(procs)
			got := append([]float64(nil), block...)
			f.SolveMulti(got, k)
			bitsEqual(t, "SolveMulti", want, got)
			got = append([]float64(nil), block...)
			f.LSolveMulti(got, k)
			bitsEqual(t, "LSolveMulti", wantL, got)
			got = append([]float64(nil), block...)
			f.LTSolveMulti(got, k)
			bitsEqual(t, "LTSolveMulti", wantLT, got)
			runtime.GOMAXPROCS(old)
		}
	}
}

// TestSupernodalComplexMatchesSimplicial cross-checks the supernodal
// LDLᵀ against the up-looking complex kernel on D + sE systems, and the
// complex SolveMulti against sequential solves bitwise.
func TestSupernodalComplexMatchesSimplicial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 5; trial++ {
		n := 80 + rng.Intn(120)
		d := randomSPD(rng, n, 3*n)
		e := randomSPD(rng, n, n)
		e.Scale(1e-2)
		s := complex(0, 10+100*rng.Float64())
		pattern := sparse.PatternUnion(d, e)
		sym, pat := order.Analyze(pattern, order.MinimumDegree)
		dp := d.PermuteSym(sym.Perm)
		ep := e.PermuteSym(sym.Perm)
		// Per-position values, aligned with pat's storage.
		dv := make([]complex128, len(pat.Val))
		for i := 0; i < n; i++ {
			for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
				j := pat.Col[p]
				dv[p] = complex(dp.At(i, j), 0) + s*complex(ep.At(i, j), 0)
			}
		}
		val := func(p int) complex128 { return dv[p] }
		ss, err := analyzeSuper(pat, sym, order.DefaultMaxWidth)
		if err != nil {
			t.Fatalf("trial %d: analyzeSuper: %v", trial, err)
		}
		fs, err := ss.factorizeComplex(pat, val, nil)
		if err != nil {
			t.Fatalf("trial %d: supernodal complex: %v", trial, err)
		}
		fu, err := factorizeComplexUpLooking(pat, val, sym)
		if err != nil {
			t.Fatalf("trial %d: simplicial complex: %v", trial, err)
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		xs := append([]complex128(nil), b...)
		xu := append([]complex128(nil), b...)
		if err := fs.Solve(xs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := fu.Solve(xu); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range xs {
			if cmplx.Abs(xs[i]-xu[i]) > 1e-8*(1+cmplx.Abs(xu[i])) {
				t.Fatalf("trial %d: solve[%d] = %v supernodal vs %v simplicial", trial, i, xs[i], xu[i])
			}
		}
		// Blocked complex solve, bitwise against sequential.
		const k = 5
		block := make([]complex128, k*n)
		for i := range block {
			block[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := append([]complex128(nil), block...)
		for c := 0; c < k; c++ {
			if err := fs.Solve(want[c*n : (c+1)*n]); err != nil {
				t.Fatal(err)
			}
		}
		got := append([]complex128(nil), block...)
		if err := fs.SolveMulti(got, k); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: complex SolveMulti entry %d differs: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestSupernodalRejectsIndefinite: a floating subnetwork (zero row-sum
// block) must surface as ErrNotPositiveDefinite from the blocked kernel
// too, so the recovery ladders behave identically on either path.
func TestSupernodalRejectsIndefinite(t *testing.T) {
	n := 64
	b := sparse.NewBuilder(n, n)
	for i := 0; i+1 < n; i += 2 {
		// Disconnected two-node pairs with exactly singular 2×2 blocks.
		b.Add(i, i, 1)
		b.Add(i+1, i+1, 1)
		b.AddSym(i, i+1, -1)
	}
	a := b.Build()
	sym, _ := order.Analyze(a, order.Natural)
	_, err := factorizeSupernodal(a, sym)
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

// TestFactorizeAutoDispatch checks the size threshold: small systems
// keep the historical up-looking factor, systems at and above
// supernodalMinOrder get the blocked kernel with consistent stats.
func TestFactorizeAutoDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	small := randomSPD(rng, 50, 150)
	sym, sp := order.Analyze(small, order.Natural)
	f, err := Factorize(sp, sym)
	if err != nil {
		t.Fatal(err)
	}
	if f.Supernodes() != 0 {
		t.Fatalf("order 50 took the supernodal path below threshold %d", supernodalMinOrder)
	}
	large := meshSPD(24, 24)
	sym, lp := order.Analyze(large, order.MinimumDegree)
	f, err = Factorize(lp, sym)
	if err != nil {
		t.Fatal(err)
	}
	if f.Supernodes() == 0 {
		t.Fatalf("order %d did not select the supernodal kernel", lp.Rows)
	}
	if f.Bytes() <= 0 || f.FlopEstimate() <= 0 {
		t.Fatalf("supernodal stats: Bytes=%d FlopEstimate=%g", f.Bytes(), f.FlopEstimate())
	}
}

// TestConcurrentSingleSolvesShareFactor runs LSolve and LTSolve on one
// supernodal factor from several goroutines at once, as Lanczos's
// concurrent E′ applications do, and requires every result to equal the
// serial solve bit for bit: each call must hold its own pooled buffer.
// Run under -race it also proves the pool hands no buffer to two calls.
func TestConcurrentSingleSolvesShareFactor(t *testing.T) {
	sym, ap := order.Analyze(meshSPD(24, 24), order.MinimumDegree)
	f, err := Factorize(ap, sym)
	if err != nil {
		t.Fatal(err)
	}
	if f.Supernodes() == 0 {
		t.Fatal("order 576 must take the supernodal path")
	}
	n := ap.Rows
	const callers = 8
	rhs := make([][]float64, callers)
	wantL := make([][]float64, callers)
	wantLT := make([][]float64, callers)
	for k := range rhs {
		rhs[k] = make([]float64, n)
		for i := range rhs[k] {
			rhs[k][i] = math.Sin(float64(1 + i*(k+3)))
		}
		wantL[k] = append([]float64(nil), rhs[k]...)
		f.LSolve(wantL[k])
		wantLT[k] = append([]float64(nil), rhs[k]...)
		f.LTSolve(wantLT[k])
	}
	got := make([][2][]float64, callers)
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func(out *[2][]float64, b []float64) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				out[0] = append(out[0][:0], b...)
				f.LSolve(out[0])
				out[1] = append(out[1][:0], b...)
				f.LTSolve(out[1])
			}
		}(&got[k], rhs[k])
	}
	wg.Wait()
	for k, out := range got {
		for i := range out[0] {
			if math.Float64bits(out[0][i]) != math.Float64bits(wantL[k][i]) ||
				math.Float64bits(out[1][i]) != math.Float64bits(wantLT[k][i]) {
				t.Fatalf("caller %d entry %d: concurrent solve differs from serial", k, i)
			}
		}
	}
}

// TestFactorBytesDeterministic repeats one supernodal factorization and
// requires one value of Bytes and ScratchBytes: the accounting counts
// every slot of the worker pool, not the slots a run happened to claim.
// Not t.Parallel: it mutates the process-wide GOMAXPROCS.
func TestFactorBytesDeterministic(t *testing.T) {
	sym, ap := order.Analyze(meshSPD(40, 40), order.MinimumDegree)
	an, err := Analyze(ap, sym)
	if err != nil {
		t.Fatal(err)
	}
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	ws := an.NewWorkspace()
	var bytes, scratch int64
	for rep := 0; rep < 60; rep++ {
		w := ws
		if rep%2 == 1 {
			w = nil // the owning path must agree with the pooled one
		}
		f, err := an.Factorize(ap, w)
		if err != nil {
			t.Fatal(err)
		}
		if rep == 0 {
			bytes, scratch = f.Bytes(), f.ScratchBytes()
			continue
		}
		if f.Bytes() != bytes || f.ScratchBytes() != scratch {
			t.Fatalf("run %d: Bytes %d ScratchBytes %d, want %d and %d", rep, f.Bytes(), f.ScratchBytes(), bytes, scratch)
		}
	}
}
