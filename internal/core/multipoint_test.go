package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/dense"
	"repro/internal/resilience"
)

// Determinism pins of the multi-point mode: the model must be
// bit-identical at every GOMAXPROCS, for every shift count, clustered
// or not, and invariant under the listing order of the shift set. These
// are Float64bits pins, not tolerance comparisons — any reduction in
// the ordering guarantees (candidate order, serial Gram–Schmidt,
// per-slot parallel writes) shows up as a hard failure here.

func multiPointFixture(t *testing.T) *System {
	t.Helper()
	return gradedGridSystem(t, 10, 10, 2, 2, 2)
}

func reduceMP(t *testing.T, sys *System, o Options) *ReducedModel {
	t.Helper()
	model, _, err := Reduce(sys, o)
	if err != nil {
		t.Fatalf("multi-point reduce: %v", err)
	}
	return model
}

func pinModelBits(t *testing.T, name string, got, want *ReducedModel) {
	t.Helper()
	if got.K() != want.K() {
		t.Fatalf("%s: order %d vs %d", name, got.K(), want.K())
	}
	bitsEqualSlice(t, name+" Lambda", got.Lambda, want.Lambda)
	bitsEqualSlice(t, name+" A", got.A.Data, want.A.Data)
	bitsEqualSlice(t, name+" B", got.B.Data, want.B.Data)
	bitsEqualSlice(t, name+" R", got.R.Data, want.R.Data)
}

// TestMultiPointDeterministicAcrossGOMAXPROCS sweeps GOMAXPROCS
// {1,2,4,8} × shift counts {1,2,4} × clustered/unclustered and pins the
// model of every combination against its GOMAXPROCS=1 reference. Not
// t.Parallel: it mutates the process-wide GOMAXPROCS.
func TestMultiPointDeterministicAcrossGOMAXPROCS(t *testing.T) {
	sys := multiPointFixture(t)
	fmax := 0.05
	shiftSets := [][]float64{
		{0},
		{0, fmax},
		{0, fmax / 30, fmax / 5, fmax},
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	for si, shifts := range shiftSets {
		for _, clusters := range []int{0, 2} {
			o := Options{FMax: fmax, Tol: 0.05, Shifts: shifts, PortClusters: clusters, MaxPoles: 12}
			runtime.GOMAXPROCS(1)
			ref := reduceMP(t, sys, o)
			for _, procs := range []int{2, 4, 8} {
				runtime.GOMAXPROCS(procs)
				got := reduceMP(t, sys, o)
				name := "shifts#" + string(rune('1'+si)) + "/clusters" + string(rune('0'+clusters)) +
					"/procs" + string(rune('0'+procs))
				pinModelBits(t, name, got, ref)
			}
		}
	}
}

// TestMultiPointShiftOrderInvariance pins that listing the expansion
// points in any order produces the bit-identical model — the
// CanonicalShifts contract observed end to end.
func TestMultiPointShiftOrderInvariance(t *testing.T) {
	t.Parallel()
	sys := multiPointFixture(t)
	fmax := 0.05
	base := Options{FMax: fmax, Tol: 0.05, MaxPoles: 12}
	perms := [][]float64{
		{0, fmax / 10, fmax},
		{fmax, 0, fmax / 10},
		{fmax / 10, fmax, 0, fmax}, // duplicate collapses too
	}
	o := base
	o.Shifts = perms[0]
	ref := reduceMP(t, sys, o)
	for i, p := range perms[1:] {
		o := base
		o.Shifts = p
		got := reduceMP(t, sys, o)
		pinModelBits(t, "permutation "+string(rune('1'+i)), got, ref)
	}
}

func TestCanonicalShifts(t *testing.T) {
	t.Parallel()
	got, err := CanonicalShifts([]float64{3, 0, 1e9, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 3, 1e9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, bad := range [][]float64{{-1}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := CanonicalShifts(bad); err == nil {
			t.Fatalf("CanonicalShifts(%v) must reject", bad)
		}
	}
}

// TestMultiPointMatchesSinglePointSubspace pins the congruence algebra:
// with the DC shift only and enough moments to saturate, the multi-point
// model must reproduce the exact admittance as well as its basis allows,
// and stay passive. (The accuracy ordering against single-point is pinned
// by the oracle suite; this is the smoke test of the projection itself.)
func TestMultiPointBasicAccuracy(t *testing.T) {
	t.Parallel()
	sys := gradedLadderSystem(t, 40, 2)
	fmax := 0.05
	model := reduceMP(t, sys, Options{FMax: fmax, Tol: 0.05, Shifts: []float64{0, fmax}, ShiftMoments: 3})
	errs, err := OracleMaxRelErrs(sys, []*ReducedModel{model}, OracleFreqs(fmax, 2, 5))
	if err != nil {
		t.Fatal(err)
	}
	if e := errs[0]; e > 5e-2 {
		t.Fatalf("saturated multi-point model error %.3e, want < 5e-2 (the Tol-band target)", errs[0])
	}
	if !model.CheckPassive(1e-9) {
		t.Fatal("multi-point model not passive")
	}
}

// TestMultiPointPortlessSystem pins the m = 0 / n = 0 edges of the
// multi-point path.
func TestMultiPointTrivialSystems(t *testing.T) {
	t.Parallel()
	// All nodes are ports: no internal block, model must be exact A/B.
	st := newRCStamper(3)
	st.resistor(0, 1, 1)
	st.resistor(1, 2, 2)
	st.resistor(2, -1, 1)
	st.capacitor(0, 1)
	st.capacitor(2, 0.5)
	sys := st.system(t, []int{0, 1, 2})
	if sys.N != 0 {
		t.Fatalf("fixture has %d internal nodes, want 0", sys.N)
	}
	model := reduceMP(t, sys, Options{FMax: 1, Tol: 0.05, Shifts: []float64{0, 1}})
	if model.K() != 0 {
		t.Fatalf("trivial system produced %d poles", model.K())
	}
	if !model.CheckPassive(1e-12) {
		t.Fatal("trivial multi-point model not passive")
	}
}

// TestMultiPointResiduePruning mirrors TestResiduePruning on the
// multi-point back end: the prune runs in Transform 2's shared tail, so
// it must act on multi-point poles exactly as on single-point ones.
func TestMultiPointResiduePruning(t *testing.T) {
	t.Parallel()
	sys := multiPointFixture(t)
	fmax := 0.05
	base := Options{FMax: fmax, Shifts: []float64{0, fmax}}
	full := reduceMP(t, sys, base)
	// A tiny threshold must prune nothing and leave the model untouched.
	o := base
	o.ResiduePruneTol = 1e-14
	same, s0, err := Reduce(sys, o)
	if err != nil {
		t.Fatal(err)
	}
	if s0.PolesPruned != 0 {
		t.Fatalf("tiny threshold pruned %d poles", s0.PolesPruned)
	}
	pinModelBits(t, "tiny prune", same, full)
	// The fixture's weakest poles fall below a 1% threshold; the pruned
	// model must stay passive and within the combined error budget.
	o.ResiduePruneTol = 0.01
	pruned, sp, err := Reduce(sys, o)
	if err != nil {
		t.Fatal(err)
	}
	if sp.PolesPruned == 0 {
		t.Fatalf("1%% threshold pruned none of %d multi-point poles", full.K())
	}
	if pruned.K() != full.K()-sp.PolesPruned || sp.PolesFound != pruned.K() {
		t.Fatalf("K %d, PolesFound %d after pruning %d of %d", pruned.K(), sp.PolesFound, sp.PolesPruned, full.K())
	}
	if !pruned.CheckPassive(1e-9) {
		t.Fatal("pruned multi-point model lost passivity")
	}
	for _, f := range []float64{fmax / 5, fmax} {
		s := complex(0, 2*math.Pi*f)
		want, err := sys.Y(s)
		if err != nil {
			t.Fatal(err)
		}
		// Budget: the dropped-pole tolerance plus one prune tolerance per
		// pruned pole.
		budget := (3*0.05 + 0.01*float64(sp.PolesPruned+1)) * cNorm(want)
		if d := dense.MaxAbsDiff(pruned.Y(s), want); d > budget {
			t.Fatalf("f=%g: pruned multi-point model error %g exceeds %g", f, d, budget)
		}
	}
}

// TestTransform2HonorsShifts pins that Transform 2 called on its own
// runs the multi-point back end when Shifts is set: Transform 1 then
// Transform2Context must give Reduce's model bit for bit.
func TestTransform2HonorsShifts(t *testing.T) {
	t.Parallel()
	sys := multiPointFixture(t)
	fmax := 0.05
	for _, o := range []Options{
		{FMax: fmax, Shifts: []float64{fmax, 0}},
		{FMax: fmax, Shifts: []float64{0, fmax}, MaxPoles: 6, ResiduePruneTol: 0.01},
	} {
		want, wantStats, err := Reduce(sys, o)
		if err != nil {
			t.Fatal(err)
		}
		tr, stats, err := Transform1(sys, o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.Transform2Context(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		pinModelBits(t, "Transform1+Transform2Context", got, want)
		if stats.Shifts != 2 || stats.BasisKept != wantStats.BasisKept || stats.PolesPruned != wantStats.PolesPruned {
			t.Fatalf("stats: shifts %d, basis kept %d, pruned %d; Reduce: %d, %d, %d",
				stats.Shifts, stats.BasisKept, stats.PolesPruned,
				wantStats.Shifts, wantStats.BasisKept, wantStats.PolesPruned)
		}
	}
}

// onePortLadder is a graded nn-node RC chain driven at node 0 only and
// grounded through a resistor at its far end, so its candidate count
// moves one column per moment of the DC shift.
func onePortLadder(t *testing.T, nn int) *System {
	st := newRCStamper(nn)
	for i := 0; i+1 < nn; i++ {
		st.resistor(i, i+1, math.Pow(10, 2*float64(i)/float64(nn-1)))
	}
	st.resistor(nn-1, -1, 100)
	for i := 0; i < nn; i++ {
		st.capacitor(i, 1)
	}
	return st.system(t, []int{0})
}

// TestMultiPointWholeSpaceShortcut pins the whole-space rule. When the
// shift set defines exactly N candidate columns, the multi-point run
// must skip the shifted factorizations and the union and return the
// single-point dense eigenpath's poles and residues bit for bit, with a
// MaxPoles cap giving exactly selectStrongestPoles of them; one
// candidate fewer must still run the union.
func TestMultiPointWholeSpaceShortcut(t *testing.T) {
	t.Parallel()
	fmax := 0.05
	for _, tc := range []struct {
		name  string
		sys   *System
		o     Options
		fewer Options // the same fixture with N−1 candidate columns
	}{
		{
			name: "grid 6x6, 9 ports, {0, fmax}",
			sys:  gradedGridSystem(t, 6, 6, 3, 3, 2),
			o:    Options{FMax: fmax, Shifts: []float64{0, fmax}},
		},
		{
			name:  "one-port ladder, DC moments",
			sys:   onePortLadder(t, 13),
			o:     Options{FMax: fmax, Shifts: []float64{0}, ShiftMoments: 12},
			fewer: Options{FMax: fmax, Shifts: []float64{0}, ShiftMoments: 11},
		},
	} {
		sys, o := tc.sys, tc.o
		ro, err := o.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if got := candidateColumns(sys.M, ro.ShiftMoments, ro.Shifts); got != sys.N {
			t.Fatalf("%s: fixture defines %d candidate columns on %d internal nodes", tc.name, got, sys.N)
		}
		multi, st, err := Reduce(sys, o)
		if err != nil {
			t.Fatalf("%s: multi-point reduce: %v", tc.name, err)
		}
		if st.BasisColumns != sys.N || st.BasisKept != sys.N || !st.DenseEig ||
			st.Stage.ShiftFactorNs != 0 || st.Stage.BasisUnionNs != 0 {
			t.Fatalf("%s: shortcut not taken: columns %d, kept %d of %d, dense %v, shift_factor %d ns, basis_union %d ns",
				tc.name, st.BasisColumns, st.BasisKept, sys.N, st.DenseEig, st.Stage.ShiftFactorNs, st.Stage.BasisUnionNs)
		}
		single, _, err := Reduce(sys, Options{FMax: fmax, DenseThreshold: sys.N})
		if err != nil {
			t.Fatalf("%s: single-point reduce: %v", tc.name, err)
		}
		if single.K() < 3 {
			t.Fatalf("%s: fixture keeps %d poles; the cap below needs more than 2", tc.name, single.K())
		}
		pinModelBits(t, tc.name+": shortcut vs single-point dense", multi, single)

		capped := o
		capped.MaxPoles = 2
		got := reduceMP(t, sys, capped)
		vals, rk := selectStrongestPoles(single.Lambda, single.R, 2, fmax)
		pinModelBits(t, tc.name+": capped shortcut vs selectStrongestPoles",
			got, &ReducedModel{M: single.M, Lambda: vals, A: single.A, B: single.B, R: rk})

		if tc.fewer.FMax == 0 {
			continue
		}
		_, fst, err := Reduce(sys, tc.fewer)
		if err != nil {
			t.Fatalf("%s: multi-point reduce with N−1 candidates: %v", tc.name, err)
		}
		if fst.BasisColumns != sys.N-1 || fst.DenseEig || fst.BasisKept >= sys.N {
			t.Fatalf("%s: N−1 candidates skipped the union: columns %d, kept %d of %d, dense %v",
				tc.name, fst.BasisColumns, fst.BasisKept, sys.N, fst.DenseEig)
		}
	}
}

// TestMultiPointCanceledIsTyped pins that a canceled context ends the
// multi-point back end with the same typed error on both routes: the
// basis union and the whole-space shortcut.
func TestMultiPointCanceledIsTyped(t *testing.T) {
	t.Parallel()
	fmax := 0.05
	for _, tc := range []struct {
		name string
		sys  *System
	}{
		{"union", multiPointFixture(t)},
		{"shortcut", gradedGridSystem(t, 6, 6, 3, 3, 2)},
	} {
		o := Options{FMax: fmax, Shifts: []float64{0, fmax}}
		tr, _, err := Transform1(tc.sys, o)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err = tr.Transform2Context(ctx, o)
		var se *resilience.StageError
		if !errors.As(err, &se) || se.Stage != resilience.StageMultiPoint || !resilience.IsCancellation(err) {
			t.Fatalf("%s: err = %v, want a canceled %s StageError", tc.name, err, resilience.StageMultiPoint)
		}
	}
}
