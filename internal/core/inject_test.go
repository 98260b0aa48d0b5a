//go:build pactcheck

package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/chol"
	"repro/internal/resilience"
	"repro/internal/resilience/inject"
)

// TestInjectedPivotFailureRecovers drives the chol.pivot injection point:
// a single forced pivot failure on the clean matrix must be absorbed by
// the first regularization rung, leaving a recorded recovery and a model
// indistinguishable from the clean run to well below the reported bound.
func TestInjectedPivotFailureRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	sys := randomSystem(rng, 3, 25)
	clean, _, err := Reduce(sys, Options{FMax: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	s := inject.NewSchedule().Arm(inject.CholPivot, 0)
	inject.Install(s)
	defer inject.Reset()
	model, stats, err := Reduce(sys, Options{FMax: 0.1})
	if err != nil {
		t.Fatalf("ladder did not absorb an injected pivot failure: %v", err)
	}
	if s.Fired(inject.CholPivot) != 1 {
		t.Fatal("injection point did not fire")
	}
	if len(stats.Recoveries) != 1 || stats.Recoveries[0].Stage != resilience.StageCholesky {
		t.Fatalf("Recoveries = %+v, want one Cholesky entry", stats.Recoveries)
	}
	if stats.Recoveries[0].Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2 (failure + first rung)", stats.Recoveries[0].Attempts)
	}
	if clean.K() != model.K() {
		t.Fatalf("recovered run kept %d poles, clean run %d", model.K(), clean.K())
	}
	for i := range clean.Lambda {
		if math.Abs(clean.Lambda[i]-model.Lambda[i]) > 1e-6*clean.Lambda[i] {
			t.Fatalf("pole %d drifted: %v vs %v", i, model.Lambda[i], clean.Lambda[i])
		}
	}
}

// TestInjectedNaNPoisonExhaustsLadder drives chol.poison: a pivot that is
// NaN at every elimination defeats every γ rung, and the terminal error
// must be a StageError carrying the full attempt history and still
// matching the chol sentinel through errors.Is.
func TestInjectedNaNPoisonExhaustsLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	sys := randomSystem(rng, 2, 15)
	inject.Install(inject.NewSchedule().ArmPoison(inject.CholPoison, -1, -1, inject.NaN()))
	defer inject.Reset()
	_, _, err := Reduce(sys, Options{FMax: 0.1})
	var se *resilience.StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a StageError", err)
	}
	if se.Stage != resilience.StageCholesky {
		t.Fatalf("stage = %s, want %s", se.Stage, resilience.StageCholesky)
	}
	if want := 1 + len(cholGammaRungs); len(se.Attempts) != want {
		t.Fatalf("attempt history has %d entries, want %d", len(se.Attempts), want)
	}
	if !errors.Is(err, chol.ErrNotPositiveDefinite) {
		t.Fatalf("StageError no longer matches the chol sentinel: %v", err)
	}
}

// TestInjectedLanczosStagnationFallsBackDense drives lanczos.iter: armed
// twice, the injection defeats both the initial LASO run and the
// restarted full-reorthogonalization rung, forcing the dense eigenpath.
// The fallback runs the same deterministic code as the DenseThreshold
// path, so the resulting model must be bit-identical to it.
func TestInjectedLanczosStagnationFallsBackDense(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	sys := randomSystem(rng, 3, 40)
	ref, refStats, err := Reduce(sys, Options{FMax: 0.08, DenseThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !refStats.DenseEig {
		t.Fatal("reference run must take the dense path")
	}
	s := inject.NewSchedule().ArmN(inject.LanczosIter, -1, 2)
	inject.Install(s)
	defer inject.Reset()
	model, stats, err := Reduce(sys, Options{FMax: 0.08, DenseThreshold: -1})
	if err != nil {
		t.Fatalf("fallback ladder failed: %v", err)
	}
	if got := s.Fired(inject.LanczosIter); got != 2 {
		t.Fatalf("lanczos.iter fired %d times, want 2 (initial + restart)", got)
	}
	if !stats.DenseEig {
		t.Fatal("fallback did not mark DenseEig")
	}
	if len(stats.Recoveries) != 1 || stats.Recoveries[0].Action != "dense eigenpath fallback" {
		t.Fatalf("Recoveries = %+v, want the dense fallback entry", stats.Recoveries)
	}
	if stats.Recoveries[0].Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", stats.Recoveries[0].Attempts)
	}
	if len(model.Lambda) != len(ref.Lambda) {
		t.Fatalf("fallback kept %d poles, dense path %d", len(model.Lambda), len(ref.Lambda))
	}
	for i := range ref.Lambda {
		if math.Float64bits(model.Lambda[i]) != math.Float64bits(ref.Lambda[i]) {
			t.Fatalf("pole %d not bit-identical: %x vs %x",
				i, math.Float64bits(model.Lambda[i]), math.Float64bits(ref.Lambda[i]))
		}
	}
	for c := 0; c < len(ref.Lambda); c++ {
		for j := 0; j < ref.M; j++ {
			if math.Float64bits(model.R.At(c, j)) != math.Float64bits(ref.R.At(c, j)) {
				t.Fatalf("R(%d,%d) not bit-identical: %g vs %g", c, j, model.R.At(c, j), ref.R.At(c, j))
			}
		}
	}
}

// TestInjectedShiftFactorDegradesToSurvivors drives mp.shiftfactor: a
// forced factorization failure at one expansion point must drop only
// that point, record a StageMultiPoint recovery, and leave a model
// bit-identical to a clean run over the surviving shift set — the
// degradation contract of the multi-point basis union.
func TestInjectedShiftFactorDegradesToSurvivors(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	sys := randomSystem(rng, 3, 30)
	opts := Options{FMax: 0.1, Shifts: []float64{0, 0.01, 0.1}}
	s := inject.NewSchedule().Arm(inject.MPShiftFactor, 1)
	inject.Install(s)
	defer inject.Reset()
	model, stats, err := Reduce(sys, opts)
	if err != nil {
		t.Fatalf("multi-point run did not absorb one failed expansion point: %v", err)
	}
	if s.Fired(inject.MPShiftFactor) != 1 {
		t.Fatal("injection point did not fire")
	}
	if stats.ShiftsDropped != 1 || stats.Shifts != 3 {
		t.Fatalf("shift accounting: %d of %d dropped, want 1 of 3", stats.ShiftsDropped, stats.Shifts)
	}
	if len(stats.Recoveries) != 1 || stats.Recoveries[0].Stage != resilience.StageMultiPoint {
		t.Fatalf("Recoveries = %+v, want one StageMultiPoint entry", stats.Recoveries)
	}
	inject.Reset()
	ref, _, err := Reduce(sys, Options{FMax: 0.1, Shifts: []float64{0, 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	pinModelBits(t, "degraded run vs clean survivor set", model, ref)
}

// TestInjectedShiftFactorAllFailIsTyped drives mp.shiftfactor armed for
// every expansion point: with no survivor left to degrade to, the stage
// must return a typed StageError carrying one attempt per shift and
// still matching the chol sentinel through errors.Is.
func TestInjectedShiftFactorAllFailIsTyped(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	sys := randomSystem(rng, 2, 20)
	inject.Install(inject.NewSchedule().ArmN(inject.MPShiftFactor, -1, -1))
	defer inject.Reset()
	_, _, err := Reduce(sys, Options{FMax: 0.1, Shifts: []float64{0, 0.1}})
	var se *resilience.StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a StageError", err)
	}
	if se.Stage != resilience.StageMultiPoint {
		t.Fatalf("stage = %s, want %s", se.Stage, resilience.StageMultiPoint)
	}
	if len(se.Attempts) != 2 {
		t.Fatalf("attempt history has %d entries, want one per expansion point (2)", len(se.Attempts))
	}
	if !errors.Is(err, chol.ErrNotPositiveDefinite) {
		t.Fatalf("StageError no longer matches the chol sentinel: %v", err)
	}
}

// sweepSeeds returns how many seeds the seeded fault sweep replays:
// PACT_FAULT_SWEEP_SEEDS when set (the nightly job raises it to 200),
// else a 6-seed smoke suitable for every push.
func sweepSeeds(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("PACT_FAULT_SWEEP_SEEDS")
	if s == "" {
		return 6
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 1 {
		t.Fatalf("PACT_FAULT_SWEEP_SEEDS = %q: %v", s, err)
	}
	return n
}

// TestSeededFaultSweepIsTypedAndReproducible replays FromSeed schedules
// over the core side of the injection catalog — chol.pivot, chol.poison,
// chol.complexpivot, chol.dag.task, lanczos.iter, mp.shiftfactor,
// dense.inviter, plus a par.item cancellation — against
// the full reduction, a multi-point reduction, an exact admittance
// evaluation, and a frequency sweep. Whatever the armed faults hit, the
// outcome must be
// either a success (with any ladder firings recorded as recoveries), a
// typed StageError, or a clean cancellation — never a panic — and
// replaying the same seed must reproduce the outcome string exactly.
// (The simulator side of the catalog — newton.iter, sim.sparselu.pivot,
// sim.ac.complexsolve — has its own seeded sweep in internal/sim.)
func TestSeededFaultSweepIsTypedAndReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	sys := randomSystem(rng, 2, 30)
	classify := func(seed int64, err error) string {
		if resilience.IsCancellation(err) {
			return "canceled"
		}
		var se *resilience.StageError
		if !errors.As(err, &se) {
			t.Fatalf("seed %d: untyped failure: %v", seed, err)
		}
		return "error: " + err.Error()
	}
	oneRun := func(seed int64) string {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s := inject.FromSeed(seed, 10,
			inject.CholPivot, inject.CholPoison, inject.CholComplexPivot,
			inject.CholDAGTask, inject.LanczosIter, inject.MPShiftFactor, inject.DenseInvIter).
			// The func-only par.item point cannot be armed from a seed, so
			// the sweep derives its cancellation index from the seed itself:
			// item seed%5 of the frequency sweep below cancels the context.
			ArmFunc(inject.ParItem, int(seed%5), cancel)
		inject.Install(s)
		defer inject.Reset()
		var out string
		model, stats, err := ReduceContext(ctx, sys, Options{FMax: 0.1})
		if err != nil {
			out = classify(seed, err)
		} else {
			out = fmt.Sprintf("ok: %d poles, %d recoveries", model.K(), len(stats.Recoveries))
		}
		// Multi-point reduction: gives mp.shiftfactor its firing sites and
		// exercises the degradation ladder under whatever else is armed.
		if mm, mstats, merr := ReduceContext(ctx, sys, Options{FMax: 0.1, Shifts: []float64{0, 0.02, 0.1}}); merr != nil {
			out += "; mp " + classify(seed, merr)
		} else {
			out += fmt.Sprintf("; mp ok: %d poles, %d shifts dropped", mm.K(), mstats.ShiftsDropped)
		}
		// Exact admittance: gives chol.complexpivot a firing site.
		if _, yerr := sys.Y(complex(0, 0.3)); yerr != nil {
			out += "; Y failed"
		} else {
			out += "; Y ok"
		}
		// Serial frequency sweep (one pool worker keeps rule consumption
		// order deterministic): visits par.item per point, firing the
		// armed cancellation when its index is in range.
		freqs := []float64{0.01, 0.03, 0.1, 0.3, 1}
		procs := runtime.GOMAXPROCS(1)
		_, serr := sys.YSweepCtx(ctx, freqs)
		runtime.GOMAXPROCS(procs)
		if serr != nil {
			out += "; sweep " + classify(seed, serr)
		} else {
			out += "; sweep ok"
		}
		return out
	}
	for seed := int64(0); seed < sweepSeeds(t); seed++ {
		first := oneRun(seed)
		if second := oneRun(seed); second != first {
			t.Fatalf("seed %d not reproducible:\n  first:  %s\n  second: %s", seed, first, second)
		}
	}
}

// TestInjectedComplexPivotFailsYEval drives chol.complexpivot: the exact
// admittance evaluation must surface the factorization failure as a typed
// error instead of a panic or a silent wrong answer.
func TestInjectedComplexPivotFailsYEval(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	sys := randomSystem(rng, 2, 12)
	s := inject.NewSchedule().Arm(inject.CholComplexPivot, -1)
	inject.Install(s)
	defer inject.Reset()
	_, err := sys.Y(complex(0, 0.3))
	if err == nil {
		t.Fatal("injected complex pivot failure was swallowed")
	}
	if s.Fired(inject.CholComplexPivot) != 1 {
		t.Fatal("injection point did not fire")
	}
	inject.Reset()
	if _, err := sys.Y(complex(0, 0.3)); err != nil {
		t.Fatalf("clean retry after reset failed: %v", err)
	}
}

// TestInjectedInverseIterationFallsBack drives dense.inviter on both
// consumers of the selected eigensolve: the dense E′ eigenpath and the
// projected multi-point pencil Ê. An inverse iteration that misses its
// convergence test makes the solve finish the full SymEig instead, which
// must be recorded as one Recovery of the consuming stage, keep every
// pole bit for bit (eigenvalues never depend on the vectors), and leave
// the residues within rounding of the clean run's.
func TestInjectedInverseIterationFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	for _, tc := range []struct {
		name  string
		sys   *System
		opts  Options
		stage resilience.Stage
		dense bool // Stats.DenseEig: E′ itself, not a projection
	}{
		{"dense E′", randomSystem(rng, 3, 30), Options{FMax: 0.1}, resilience.StagePoleAnalysis, true},
		{"projected Ê", gradedGridSystem(t, 10, 10, 2, 2, 2), Options{FMax: 0.05, Shifts: []float64{0, 0.05}}, resilience.StageMultiPoint, false},
	} {
		clean, cstats, err := Reduce(tc.sys, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(cstats.Recoveries) != 0 || clean.K() == 0 || cstats.DenseEig != tc.dense {
			t.Fatalf("%s: clean run kept %d poles (dense %v) with recoveries %+v", tc.name, clean.K(), cstats.DenseEig, cstats.Recoveries)
		}
		s := inject.NewSchedule().Arm(inject.DenseInvIter, 0)
		inject.Install(s)
		model, stats, err := Reduce(tc.sys, tc.opts)
		inject.Reset()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if s.Fired(inject.DenseInvIter) != 1 {
			t.Fatalf("%s: injection point fired %d times, want 1", tc.name, s.Fired(inject.DenseInvIter))
		}
		if len(stats.Recoveries) != 1 || stats.Recoveries[0].Stage != tc.stage ||
			stats.Recoveries[0].Action != "full dense eigensolve" || stats.Recoveries[0].Attempts != 2 {
			t.Fatalf("%s: Recoveries = %+v, want one %s full dense eigensolve", tc.name, stats.Recoveries, tc.stage)
		}
		if model.K() != clean.K() || stats.PolesFound != cstats.PolesFound {
			t.Fatalf("%s: fallback kept %d of %d poles, clean %d of %d", tc.name, model.K(), stats.PolesFound, clean.K(), cstats.PolesFound)
		}
		for i, lam := range clean.Lambda {
			if math.Float64bits(model.Lambda[i]) != math.Float64bits(lam) {
				t.Fatalf("%s: pole %d moved: %v vs %v", tc.name, i, model.Lambda[i], lam)
			}
		}
		scale := clean.R.MaxAbs()
		for i := range clean.R.Data {
			if d := math.Abs(model.R.Data[i] - clean.R.Data[i]); d > 1e-9*scale {
				t.Fatalf("%s: residue entry %d off by %.3g (scale %.3g)", tc.name, i, d, scale)
			}
		}
	}
}
