// Package inject is the deterministic fault-injection harness of the
// resilience layer. Each fragile stage of the pipeline hosts one or more
// named injection points; a test installs a Schedule that arms specific
// points at specific occurrences, runs the pipeline, and asserts the
// recovery ladder's outcome — a degraded-but-bounded result, or a typed
// terminal error naming the stage and the attempts.
//
// Like internal/check, the harness is compiled out of release builds: in
// the default build every hook is a no-op stub and Enabled is a false
// constant, so the guarded call sites
//
//	if inject.Enabled && inject.ShouldFail(inject.CholPivot, k) { ... }
//
// are eliminated as dead code. Building with -tags pactcheck swaps in
// the real implementation.
//
// Schedules are deterministic by construction: a rule fires on an exact
// (point, index) match with a bounded fire count, and FromSeed derives a
// randomized-but-reproducible schedule from a seed, so every rung of
// every ladder can be exercised reproducibly in CI.
package inject

// Point names one injection site in the pipeline. The catalog below is
// documented in DESIGN.md §9; every point has at least one test forcing
// a fault through it.
type Point string

// The injection-point catalog.
const (
	// CholPivot forces a pivot failure on the k-th elimination of the
	// real Cholesky factorization (chol.Factorize): the site returns
	// ErrNotPositiveDefinite as if pivot k had collapsed.
	CholPivot Point = "chol.pivot"
	// CholPoison poisons the scattered diagonal entry of elimination k
	// with the armed value (NaN or ±Inf) before the pivot test.
	CholPoison Point = "chol.poison"
	// CholComplexPivot forces a zero-pivot failure at step k of the
	// complex LDLᵀ factorization (chol.FactorizeComplex).
	CholComplexPivot Point = "chol.complexpivot"
	// CholDAGTask fails the supernodal panel task for supernode s before
	// any of its arithmetic runs, modeling a task-level fault in the
	// DAG-scheduled factorization. The scheduler has no early exit —
	// every other panel still factors and the lowest-indexed failure is
	// reported — so arming this point exercises the drain-and-report
	// path under race detection.
	CholDAGTask Point = "chol.dag.task"
	// LanczosIter fails the Lanczos iteration at step j
	// (lanczos.FindAbove / lanczos.TwoPass), modeling stagnation or
	// breakdown on a clustered spectrum.
	LanczosIter Point = "lanczos.iter"
	// NewtonIter forces Newton non-convergence at iteration k of one
	// sim.Circuit Newton solve.
	NewtonIter Point = "newton.iter"
	// SimSparseLUPivot forces a singular-pivot failure at elimination
	// column k of one sparse LU factorization (sim.LUFactor), as if
	// partial pivoting found the whole candidate column exactly zero.
	SimSparseLUPivot Point = "sim.sparselu.pivot"
	// SimACComplexSolve fails the complex factor-and-solve of frequency
	// point i in an AC sweep (sim.Circuit.ACCtx), modeling a resonant
	// point where the complex MNA matrix is numerically singular.
	SimACComplexSolve Point = "sim.ac.complexsolve"
	// ParItem is visited by the worker pool before work item i of a
	// context-aware parallel region; arm it with a func (ArmFunc) that
	// cancels the region's context to test mid-stage cancellation.
	ParItem Point = "par.item"
	// SvcAdmit fires at admission decision i of the reduction service
	// (internal/service): an armed failure forces a deterministic shed —
	// the request is rejected 429 exactly as if the admission queue were
	// at its depth limit.
	SvcAdmit Point = "svc.admit"
	// SvcCacheStore fails store i into the service's content-addressed
	// model cache: the completed result is returned to its requester but
	// the cache write is dropped, so the next identical deck misses and
	// re-reduces instead of observing a corrupt entry.
	SvcCacheStore Point = "svc.cache.store"
	// SvcFlightLeader fails the leader of singleflight i before its
	// reduction runs: a plain arm surfaces a typed StageError that every
	// follower of the flight must observe verbatim; an ArmFunc that
	// panics models a leader crash mid-flight, which must fail followers
	// over to a fresh attempt instead of hanging them.
	SvcFlightLeader Point = "svc.flight.leader"
	// MPShiftFactor fails the shifted factorization of D + s₀E for
	// expansion point k of a multi-expansion-point reduction before any
	// numeric work runs. The basis union must degrade to the surviving
	// shifts (recording a Recovery) and only surface a typed StageError
	// when every expansion point fails.
	MPShiftFactor Point = "mp.shiftfactor"
	// StampAssemble fails stamping chunk i of the parallel element loop
	// in stamp.Extract before any of its triplets are emitted. The other
	// chunks still run to completion and the lowest-indexed armed chunk
	// is the error reported, so drilling this point under -race proves
	// the bucketed assembly drains deterministically on failure.
	StampAssemble Point = "stamp.assemble"
	// DenseInvIter fails the inverse iteration of selected eigenvalue q
	// (ascending among the kept ones) in dense.SymEigAbove, as if it had
	// missed the convergence test after its five solves: the call must
	// finish the full SymEig solve instead and report the fallback, which
	// the pole analysis records as a Recovery.
	DenseInvIter Point = "dense.inviter"
)

// Catalog lists every injection point in the pipeline, in the
// declaration order above. The count is pinned by a test so a new point
// cannot be added without joining the catalog (and therefore the seeded
// sweeps and the DESIGN.md table).
func Catalog() []Point {
	return []Point{
		CholPivot, CholPoison, CholComplexPivot, CholDAGTask,
		LanczosIter, NewtonIter, SimSparseLUPivot, SimACComplexSolve,
		ParItem, SvcAdmit, SvcCacheStore, SvcFlightLeader,
		MPShiftFactor, StampAssemble, DenseInvIter,
	}
}

// Seedable lists the catalog points FromSeed can arm on its own: every
// point whose call site consumes a fail or poison rule. The func-only
// ParItem is excluded — a seeded sweep derives its cancellation index
// from the seed and arms it with ArmFunc explicitly.
func Seedable() []Point {
	var out []Point
	for _, p := range Catalog() {
		if p == ParItem {
			continue
		}
		out = append(out, p)
	}
	return out
}
