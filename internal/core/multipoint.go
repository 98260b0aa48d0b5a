package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/check"
	"repro/internal/chol"
	"repro/internal/dense"
	"repro/internal/order"
	"repro/internal/par"
	"repro/internal/resilience"
	"repro/internal/resilience/inject"
	"repro/internal/sparse"
)

// This file is Transform 2's multi-expansion-point back end
// (multiPointPoles); Transform2Context runs it in place of the
// single-point eigenanalysis when Options.Shifts is set.
//
// Single-point PACT keeps the dominant eigenvectors of E′ = L⁻¹EL⁻ᵀ:
// exact at s = 0 through two moments, but blind to where the ports
// actually drive the network at higher frequencies. The multi-point mode
// works on the same Transform-1 state and instead builds a projection
// basis from the internal responses (D + s₀E)⁻¹P at a small set of
// expansion points s₀ = j2πf (P = R − EX is the connection block,
// connectionBlock). The candidate columns are unioned by a
// D-orthonormal modified Gram–Schmidt into V with VᵀDV = I, so the
// congruence-projected pencil is simply
//
//	Vᵀ(D + sE)V = I + sÊ,  Ê = VᵀEV  (symmetric, non-negative definite),
//
// and the eigendecomposition Ê = WΛWᵀ lands the projected internal term
// in exactly the single-point model form Σᵢ s²rᵢᵀrᵢ/(1+sλᵢ) with
// rᵢ = wᵢᵀVᵀP. Congruence on a non-negative definite pencil preserves
// non-negative definiteness, so the realized reduced model is passive by
// construction, shift set or not — the same argument as Transform 2,
// with V in place of the kept eigenvectors.
//
// Whole-space rule: the shift set defines ShiftMoments·m candidate
// columns per DC shift and 2·ShiftMoments·m per nonzero shift
// (candidateColumns). When they number at least N, the union could at
// best span the whole internal space, and projecting onto the whole
// space is only a change of basis: Ê then has the spectrum of E′. So
// multiPointPoles skips the connection block, the shifted
// factorizations, the Gram–Schmidt union and the projection, and takes
// the single-point dense eigenpath (densePoles) instead. The rule reads
// only m, N and the shift set, so it is decided before any shift is
// factored.
//
// Determinism: the shift set is canonicalized, candidate columns are
// generated into a fixed order (shift ascending → moment ascending → Re
// columns by port → Im columns by port), and the Gram–Schmidt union runs
// serially over that order. All parallelism lives in the factorizations
// and per-column slot writes, which are bit-identical at every
// GOMAXPROCS, so the projected model is too.

// CanonicalShifts returns the canonical form of a multi-point shift set:
// sorted ascending with exact duplicates dropped. Every consumer of
// Options.Shifts (the reduction itself, pact.Options.Canonical) uses this
// form, so listing order never changes the model or splits cache
// entries. An empty set canonicalizes to nil. Returns an error for
// negative or non-finite entries.
func CanonicalShifts(shifts []float64) ([]float64, error) {
	var out []float64
	for _, f := range shifts {
		if !(f >= 0) || math.IsInf(f, 1) {
			return nil, fmt.Errorf("core: expansion-point frequency %g outside [0, ∞)", f)
		}
		out = append(out, f)
	}
	sort.Float64s(out)
	// Only bit-identical listing duplicates collapse; near-equal shifts
	// are distinct expansion points.
	return slices.Compact(out), nil
}

// mulVecComplexReal computes dst = a·src for a real sparse matrix and a
// complex vector.
func mulVecComplexReal(a *sparse.CSR, dst, src []complex128) {
	for i := 0; i < a.Rows; i++ {
		var acc complex128
		cols, vals := a.Row(i)
		for p, j := range cols {
			acc += complex(vals[p], 0) * src[j]
		}
		dst[i] = acc
	}
}

// shiftedBasisState is the shared state of the per-shift
// factorizations: the pencil D + sE (one symbolic analysis shared by
// every shift, as in YSweep) and the factorization workspace the shifts
// reuse in turn.
type shiftedBasisState struct {
	pc *pencil
	ws *chol.FactorWorkspace
}

// newShiftedBasisState analyzes the pencil once for all shifts. The
// Transform-1 frame is kept (order.Natural), so candidate columns live
// in the same coordinates as dp, ep and the connection block.
func (t *Transformed) newShiftedBasisState() (*shiftedBasisState, error) {
	pc, err := newPencil(t.dp, t.ep, order.Natural)
	if err != nil {
		return nil, err
	}
	return &shiftedBasisState{pc: pc, ws: pc.an.NewWorkspace()}, nil
}

// shiftCandidates generates the moment candidates of expansion point
// index k at frequency f (Hz): v₀ = (D+s₀E)⁻¹P and
// v_{j+1} = (D+s₀E)⁻¹(E v_j), returned as real columns in the fixed
// order moment → Re by port → Im by port (the DC shift has no imaginary
// part and reuses the real Transform-1 factor). ports[i] names the port
// that produced column i, for the cluster-wise basis thinning.
func (t *Transformed) shiftCandidates(sb *shiftedBasisState, k, moments int, f float64, pcols [][]float64) (cands [][]float64, ports []int, err error) {
	m, n := t.M, t.N
	if inject.Enabled && inject.ShouldFail(inject.MPShiftFactor, k) {
		return nil, nil, fmt.Errorf("core: injected shifted factorization failure at expansion point %g Hz: %w",
			f, chol.ErrNotPositiveDefinite)
	}
	if f == 0 {
		block := make([]float64, m*n)
		tmp := make([]float64, n)
		for mom := 0; mom < moments; mom++ {
			if mom == 0 {
				for j, col := range pcols {
					copy(block[j*n:(j+1)*n], col)
				}
			} else {
				for j := 0; j < m; j++ {
					col := block[j*n : (j+1)*n]
					t.ep.MulVec(tmp, col)
					copy(col, tmp)
				}
				t.stats.MatVecs += m
			}
			t.fact.SolveMulti(block, m)
			t.stats.Solves += m
			for j := 0; j < m; j++ {
				//lint:ignore defersmell the clone survives as a moment candidate for the basis union; block is the reused per-moment scratch
				cands = append(cands, append([]float64(nil), block[j*n:(j+1)*n]...))
				ports = append(ports, j)
			}
		}
		return cands, ports, nil
	}
	//lint:ignore nondet stage wall-time accounting only, never feeds numeric results
	t0 := time.Now()
	cf, err := sb.pc.factorize(complex(0, 2*math.Pi*f), sb.ws)
	//lint:ignore nondet stage wall-time accounting only, never feeds numeric results
	t.stats.Stage.ShiftFactorNs += time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, nil, fmt.Errorf("core: factorization of D+sE at expansion point %g Hz: %w", f, err)
	}
	z := make([]complex128, m*n)
	tmp := make([]complex128, n)
	for j, col := range pcols {
		for i, v := range col {
			z[j*n+i] = complex(v, 0)
		}
	}
	for mom := 0; mom < moments; mom++ {
		if mom > 0 {
			for j := 0; j < m; j++ {
				col := z[j*n : (j+1)*n]
				mulVecComplexReal(t.ep, tmp, col)
				copy(col, tmp)
			}
			t.stats.MatVecs += m
		}
		if serr := cf.SolveMulti(z, m); serr != nil {
			return nil, nil, fmt.Errorf("core: moment solves at expansion point %g Hz: %w", f, serr)
		}
		t.stats.Solves += m
		re := make([][]float64, m)
		im := make([][]float64, m)
		for j := 0; j < m; j++ {
			rc := make([]float64, n)
			ic := make([]float64, n)
			for i := 0; i < n; i++ {
				rc[i] = real(z[j*n+i])
				ic[i] = imag(z[j*n+i])
			}
			re[j], im[j] = rc, ic
		}
		cands = append(cands, re...)
		cands = append(cands, im...)
		for j := 0; j < m; j++ {
			ports = append(ports, j)
		}
		for j := 0; j < m; j++ {
			ports = append(ports, j)
		}
	}
	return cands, ports, nil
}

// basisDropTol is the relative drop tolerance of the basis union's
// Gram–Schmidt: a candidate whose D-norm after orthogonalization falls
// below this fraction of its original D-norm is discarded as
// numerically dependent.
const basisDropTol = 1e-8

// mgsD thins candidate columns into a D-orthonormal basis by modified
// Gram–Schmidt in the D inner product ⟨u,v⟩ = uᵀDv, dropping a column
// when orthogonalization leaves less than basisDropTol of its original
// D-norm. The loop is serial over the fixed candidate order, so the kept
// basis — and everything projected through it — is bit-identical at
// every GOMAXPROCS and invariant under shift listing order. Candidate
// slices are normalized in place and aliased by the returned basis.
func (t *Transformed) mgsD(cands [][]float64) [][]float64 {
	n := t.N
	var basis, wcache [][]float64
	w := make([]float64, n)
	for _, c := range cands {
		t.dp.MulVec(w, c)
		norm0 := math.Sqrt(sparse.Dot(c, w))
		if !(norm0 > 0) || math.IsInf(norm0, 0) {
			continue
		}
		orth := func() {
			for i, u := range basis {
				h := sparse.Dot(wcache[i], c)
				if h == 0 {
					continue
				}
				for r := range c {
					c[r] -= h * u[r]
				}
			}
		}
		orth()
		t.dp.MulVec(w, c)
		nrm2 := sparse.Dot(c, w)
		if !(nrm2 > 0) {
			continue
		}
		nrm := math.Sqrt(nrm2)
		if nrm < 0.5*norm0 {
			// Heavy cancellation: one reorthogonalization pass restores
			// D-orthogonality to working precision ("twice is enough").
			orth()
			t.dp.MulVec(w, c)
			nrm2 = sparse.Dot(c, w)
			if !(nrm2 > 0) {
				continue
			}
			nrm = math.Sqrt(nrm2)
		}
		if nrm <= basisDropTol*norm0 {
			continue
		}
		inv := 1 / nrm
		for r := range c {
			c[r] *= inv
		}
		wc := make([]float64, n)
		t.dp.MulVec(wc, c)
		basis = append(basis, c)
		wcache = append(wcache, wc)
	}
	return basis
}

// clusterPorts groups the ports by electrical proximity on the exact
// port conductance block: weight(i,j) = |A′_ij|/√(A′_ii·A′_jj), the
// normalized DC coupling two ports see through the network (TurboMOR's
// notion of port locality, computed on the block Transform 1 already
// produced exactly).
func (t *Transformed) clusterPorts(k int) [][]int {
	a := t.APrime
	return order.ClusterGreedy(t.M, k, func(i, j int) float64 {
		v := math.Abs(a.At(i, j))
		d := a.At(i, i) * a.At(j, j)
		if d > 0 {
			return v / math.Sqrt(d)
		}
		return v
	})
}

// candidateColumns returns the number of candidate columns a shift set
// defines: moments·m for the DC shift (real moments only) and
// 2·moments·m for every nonzero shift (Re and Im parts per port).
func candidateColumns(m, moments int, shifts []float64) int {
	cols := 0
	for _, f := range shifts {
		if f == 0 {
			cols += m
		} else {
			cols += 2 * m
		}
	}
	return moments * cols
}

// multiPointPoles is the multi-expansion-point Transform 2 back end:
// moment candidates per shift, per-cluster thinning when port clustering
// is on, the global D-orthonormal union V, and the Rayleigh–Ritz
// projection Ê = VᵀEV, whose eigenvalues ≥ λ_c are the retained poles —
// or, when the candidates number at least N, the dense E′ eigenpath in
// place of all of that (the whole-space rule, see the file comment). A
// shift whose factorization fails is dropped with a recorded Recovery
// (the surviving shifts still span a valid congruence basis); only when
// every shift fails does the stage return a typed StageError.
// Cancellation is terminal immediately. opts arrive resolved, so the
// shift set is already canonical.
func (t *Transformed) multiPointPoles(ctx context.Context, opts Options) ([]float64, *dense.Mat, error) {
	m, n := t.M, t.N
	stats := t.stats
	shifts := opts.Shifts
	stats.Shifts = len(shifts)

	if cols := candidateColumns(m, opts.ShiftMoments, shifts); cols >= n {
		stats.BasisColumns, stats.BasisKept = cols, n
		return t.densePoles(ctx, resilience.StageMultiPoint)
	}

	_, pcols, err := t.connectionBlock(ctx)
	if err != nil {
		return nil, nil, resilience.Canceled(resilience.StageMultiPoint, ctx)
	}
	sb, err := t.newShiftedBasisState()
	if err != nil {
		return nil, nil, fmt.Errorf("core: shifted symbolic analysis: %w", err)
	}

	// Candidate generation, shift by shift in canonical order. The
	// degradation ladder lives here: a failed shift contributes nothing
	// but does not kill the reduction while any shift survives.
	var cands [][]float64
	var ports []int
	var attempts []resilience.Attempt
	for k, f := range shifts {
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, resilience.Canceled(resilience.StageMultiPoint, ctx)
		}
		sc, sp, serr := t.shiftCandidates(sb, k, opts.ShiftMoments, f, pcols)
		if serr != nil {
			if resilience.IsCancellation(serr) {
				return nil, nil, resilience.Canceled(resilience.StageMultiPoint, ctx)
			}
			attempts = append(attempts, resilience.Attempt{
				Action: fmt.Sprintf("factorize(D+s₀E), f=%g Hz", f),
				Err:    serr,
			})
			stats.ShiftsDropped++
			continue
		}
		cands = append(cands, sc...)
		ports = append(ports, sp...)
	}
	if stats.ShiftsDropped == len(shifts) {
		return nil, nil, resilience.NewStageError(resilience.StageMultiPoint,
			"every expansion point failed to factor", attempts, attempts[len(attempts)-1].Err)
	}
	if stats.ShiftsDropped > 0 {
		stats.Recoveries = append(stats.Recoveries, resilience.Recovery{
			Stage:    resilience.StageMultiPoint,
			Action:   fmt.Sprintf("degraded to %d of %d expansion points", len(shifts)-stats.ShiftsDropped, len(shifts)),
			Attempts: stats.ShiftsDropped + 1,
			Reason:   attempts[0].Err.Error(),
		})
	}
	stats.BasisColumns = len(cands)

	// Basis union. With port clustering the candidates thin per cluster
	// first (each cluster's Gram–Schmidt sees only its own columns —
	// the quadratic cost drops by the cluster count), then the surviving
	// columns union globally in fixed cluster order.
	//lint:ignore nondet stage wall-time accounting only, never feeds numeric results
	u0 := time.Now()
	var basis [][]float64
	if opts.PortClusters > 1 && m > opts.PortClusters {
		clusters := t.clusterPorts(opts.PortClusters)
		stats.PortClusters = len(clusters)
		inCluster := make([]int, m)
		for ci, cl := range clusters {
			for _, p := range cl {
				inCluster[p] = ci
			}
		}
		var merged [][]float64
		for ci := range clusters {
			var sub [][]float64
			for i, c := range cands {
				if inCluster[ports[i]] == ci {
					sub = append(sub, c)
				}
			}
			merged = append(merged, t.mgsD(sub)...)
		}
		basis = t.mgsD(merged)
	} else {
		basis = t.mgsD(cands)
	}
	//lint:ignore nondet stage wall-time accounting only, never feeds numeric results
	stats.Stage.BasisUnionNs += time.Since(u0).Nanoseconds()
	stats.BasisKept = len(basis)
	q := len(basis)
	if q == 0 {
		return nil, nil, resilience.NewStageError(resilience.StageMultiPoint,
			"basis union kept no columns", attempts, fmt.Errorf("core: all %d candidates dropped", len(cands)))
	}

	// Projection: Ê = VᵀEV and R̂ = VᵀP. Column j of each owns its slot
	// writes (SetSym mirrors i ≤ j), so both are bit-identical at every
	// GOMAXPROCS; symmetry of Ê is constructional.
	ev := make([][]float64, q)
	merr := par.ForWorkersCtx(ctx, q, func(_, j int) {
		e := make([]float64, n)
		t.ep.MulVec(e, basis[j])
		ev[j] = e
	})
	if merr != nil {
		return nil, nil, resilience.Canceled(resilience.StageMultiPoint, ctx)
	}
	stats.MatVecs += q
	eHat := dense.New(q, q)
	par.ForWorkers(q, func(_, j int) {
		for i := 0; i <= j; i++ {
			eHat.SetSym(i, j, sparse.Dot(basis[i], ev[j]))
		}
	})
	rHat := dense.New(q, m)
	par.ForWorkers(m, func(_, j int) {
		for i := 0; i < q; i++ {
			rHat.Set(i, j, sparse.Dot(basis[i], pcols[j]))
		}
	})
	if check.Enabled {
		check.Symmetric("multi-point projected pencil Ê = VᵀEV", eHat, check.DefaultTol)
		check.NonNegDef("multi-point projected pencil Ê = VᵀEV", eHat, check.DefaultTol)
	}

	if cerr := ctx.Err(); cerr != nil {
		return nil, nil, resilience.Canceled(resilience.StageMultiPoint, ctx)
	}
	vals, uk, err := symEigAbove(eHat, stats.LambdaC)
	if err != nil {
		return nil, nil, fmt.Errorf("core: eigensolve of projected Ê: %w", err)
	}
	// The same λ ≥ λ_c cutoff as the single-point path keeps every
	// retained pole strictly positive, so the realized internal nodes are
	// well defined. R_k = Wₖᵀ R̂ for the kept eigenvectors Wₖ of Ê.
	k := len(vals)
	rk := dense.New(k, m)
	for c := 0; c < k; c++ {
		for j := 0; j < m; j++ {
			s := 0.0
			for i := 0; i < q; i++ {
				s += uk.At(i, c) * rHat.At(i, j)
			}
			rk.Set(c, j, s)
		}
	}
	return vals, rk, nil
}
