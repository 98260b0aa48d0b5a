package chol

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/order"
	"repro/internal/sparse"
)

// analyzeMeshSuper builds the permuted mesh matrix and its supernodal
// symbolic structure under minimum-degree ordering — the production
// configuration of the large-mesh path.
func analyzeMeshSuper(t *testing.T, nx, ny int) (*superSymbolic, *sparse.CSR) {
	t.Helper()
	a := meshSPD(nx, ny)
	sym, ap := order.Analyze(a, order.MinimumDegree)
	ss, err := analyzeSuper(ap, sym, order.DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	return ss, ap
}

// TestDAGScheduleBitIdenticalRealFactor pins the determinism contract
// for the real LLᵀ: the packed factor of the DAG schedule is
// Float64bits-identical to the serial run at every GOMAXPROCS, with and
// without a pooled workspace.
func TestDAGScheduleBitIdenticalRealFactor(t *testing.T) {
	ss, ap := analyzeMeshSuper(t, 40, 40)

	serial := runtime.GOMAXPROCS(1)
	ref, err := ss.factorize(ap, nil)
	runtime.GOMAXPROCS(serial)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), ref.super.val...)

	ws := &FactorWorkspace{ss: ss}
	for _, procs := range []int{1, 2, 4, 8} {
		old := runtime.GOMAXPROCS(procs)
		fresh, err := ss.factorize(ap, nil)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "fresh factor", want, fresh.super.val)
		pooled, err := ss.factorize(ap, ws)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "workspace factor", want, pooled.super.val)
		runtime.GOMAXPROCS(old)
	}
}

// TestDAGScheduleBitIdenticalComplexFactor is the complex LDLᵀ half of
// the pin: packed panels AND the diagonal must be bit-identical across
// GOMAXPROCS and workspace reuse — the YSweep
// re-factorization configuration.
func TestDAGScheduleBitIdenticalComplexFactor(t *testing.T) {
	ss, ap := analyzeMeshSuper(t, 32, 32)
	val := func(p int) complex128 {
		return complex(ap.Val[p], 0.25*ap.Val[p]) // (1+0.25i)·A: symmetric, nonsingular
	}

	serial := runtime.GOMAXPROCS(1)
	ref, err := ss.factorizeComplex(ap, val, nil)
	runtime.GOMAXPROCS(serial)
	if err != nil {
		t.Fatal(err)
	}
	wantV := append([]complex128(nil), ref.super.val...)
	wantD := append([]complex128(nil), ref.super.d...)

	ws := &FactorWorkspace{ss: ss}
	for _, procs := range []int{1, 2, 4, 8} {
		old := runtime.GOMAXPROCS(procs)
		for _, w := range []*FactorWorkspace{nil, ws} {
			f, err := ss.factorizeComplex(ap, val, w)
			if err != nil {
				t.Fatal(err)
			}
			cbitsEqual(t, "complex panels", wantV, f.super.val)
			cbitsEqual(t, "complex diagonal", wantD, f.super.d)
		}
		runtime.GOMAXPROCS(old)
	}
}

func cbitsEqual(t *testing.T, what string, a, b []complex128) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			t.Fatalf("%s: entry %d differs in bits: %v vs %v", what, i, a[i], b[i])
		}
	}
}

// TestFactorWorkspaceSteadyStateAllocs pins the memory-engineering half
// of the tentpole: repeated factorizations through one workspace must
// allocate only O(1) descriptor objects (the returned factor handles),
// never the panel/scratch/solve storage — the property that makes
// AC-sweep re-factorizations allocation-free in steady state.
func TestFactorWorkspaceSteadyStateAllocs(t *testing.T) {
	ss, ap := analyzeMeshSuper(t, 30, 30)
	val := func(p int) complex128 { return complex(ap.Val[p], 0.25*ap.Val[p]) }

	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	ws := &FactorWorkspace{ss: ss}
	n := ss.sym.N
	rhs := make([]float64, 4*n)
	crhs := make([]complex128, 4*n)

	// Warm every lazily created buffer once.
	if _, err := ss.factorize(ap, ws); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.factorizeComplex(ap, val, ws); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(5, func() {
		f, err := ss.factorize(ap, ws)
		if err != nil {
			t.Fatal(err)
		}
		f.SolveMulti(rhs, 4)
		cf, err := ss.factorizeComplex(ap, val, ws)
		if err != nil {
			t.Fatal(err)
		}
		if err := cf.SolveMulti(crhs, 4); err != nil {
			t.Fatal(err)
		}
	})
	// Factor/ComplexFactor handles and scheduler closures are O(1) small
	// objects; the panels (the megabytes) must be pooled.
	if allocs > 16 {
		t.Fatalf("steady-state factorize+solve allocates %v objects/op, want O(1) descriptors only", allocs)
	}
}

// TestDAGScheduleErrorDeterministic: a non-SPD matrix must fail with
// the same typed error (single failing panel) at several worker counts,
// with no early exit corrupting the report.
func TestDAGScheduleErrorDeterministic(t *testing.T) {
	a := meshSPD(24, 24)
	// Flip one diagonal deep in the matrix: that column's pivot goes
	// negative during elimination.
	for p := a.RowPtr[400]; p < a.RowPtr[401]; p++ {
		if a.Col[p] == 400 {
			a.Val[p] = -5
		}
	}
	sym, ap := order.Analyze(a, order.MinimumDegree)
	ss, err := analyzeSuper(ap, sym, order.DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		_, err := ss.factorize(ap, nil)
		if !errors.Is(err, ErrNotPositiveDefinite) {
			t.Fatalf("procs=%d: err = %v, want ErrNotPositiveDefinite", procs, err)
		}
		msgs = append(msgs, err.Error())
		runtime.GOMAXPROCS(old)
	}
	for _, m := range msgs[1:] {
		if m != msgs[0] {
			t.Fatalf("error message drifted across procs: %q vs %q", msgs[0], m)
		}
	}
}
