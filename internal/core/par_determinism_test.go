package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// bitsEqualSlice fails if the two float slices differ in any bit — the
// parallel-determinism contract of the par worker pool.
func bitsEqualSlice(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d differs bitwise: %v vs %v", name, i, got[i], want[i])
		}
	}
}

// TestTransform1DeterministicAcrossGOMAXPROCS runs the parallel first
// transform at GOMAXPROCS 1 and 4 and requires bit-identical port blocks
// and R′ columns: every column's arithmetic is independent and lands in
// caller-owned slots, so the worker count must not be observable in the
// output. Not t.Parallel: it mutates the process-wide GOMAXPROCS.
func TestTransform1DeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sys := randomSystem(rng, 8, 120)
	opts := Options{FMax: 1e9, Tol: 0.05}

	run := func() (*Transformed, [][]float64) {
		tr, _, err := Transform1(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		return tr, tr.RPrimeBlock()
	}
	old := runtime.GOMAXPROCS(1)
	ts, rs := run()
	runtime.GOMAXPROCS(4)
	tp, rp := run()
	runtime.GOMAXPROCS(old)

	bitsEqualSlice(t, "APrime", tp.APrime.Data, ts.APrime.Data)
	bitsEqualSlice(t, "BPrime", tp.BPrime.Data, ts.BPrime.Data)
	for j := range rs {
		bitsEqualSlice(t, "RPrime column", rp[j], rs[j])
	}
}

// TestReduceDeterministicAcrossGOMAXPROCS extends the contract to the
// full reduction (Transform 2's parallel solves, the dense eigenpath,
// the multi-point projection and its Ê eigensolve included): poles and
// residue factors must be bit-identical at every worker count.
func TestReduceDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sys := randomSystem(rng, 6, 90)
	for _, opts := range []Options{
		{FMax: 2e9, Tol: 0.05, DenseThreshold: 1 << 20},   // force the dense eigenpath
		{FMax: 2e9, Tol: 0.05, Shifts: []float64{0, 2e9}}, // the projected Ê eigensolve
	} {
		run := func() ([]float64, []float64, []float64, []float64) {
			model, _, err := Reduce(sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			if model.K() == 0 {
				t.Fatalf("%+v kept no poles", opts)
			}
			return model.Lambda, model.A.Data, model.B.Data, model.R.Data
		}
		old := runtime.GOMAXPROCS(1)
		lamS, aS, bS, rS := run()
		runtime.GOMAXPROCS(4)
		lamP, aP, bP, rP := run()
		runtime.GOMAXPROCS(old)

		bitsEqualSlice(t, "Lambda", lamP, lamS)
		bitsEqualSlice(t, "A", aP, aS)
		bitsEqualSlice(t, "B", bP, bS)
		bitsEqualSlice(t, "R", rP, rS)
	}
}
