package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/check"
	"repro/internal/chol"
	"repro/internal/dense"
	"repro/internal/lanczos"
	"repro/internal/order"
	"repro/internal/par"
	"repro/internal/resilience"
	"repro/internal/sparse"
)

// workCounters accumulates solve/matvec counts on a single worker of a
// parallel region; Stats.merge folds the per-worker deltas back into the
// shared Stats in a fixed order, keeping the counters exact (and the
// whole pipeline free of shared mutable state inside pool bodies).
type workCounters struct {
	solves  int
	matVecs int
}

// merge folds per-worker counters into the stats.
func (s *Stats) merge(wcs []workCounters) {
	for _, wc := range wcs {
		s.Solves += wc.solves
		s.MatVecs += wc.matVecs
	}
}

// lanczosConvTol is the Ritz convergence tolerance of the single-point
// Lanczos eigenanalysis.
const lanczosConvTol = 1e-8

// Options configures the PACT reduction.
type Options struct {
	// FMax is the maximum frequency (Hz) at which the reduced model must
	// track the original within Tol. Required.
	FMax float64
	// Tol is the per-pole relative admittance error tolerance at FMax
	// (default 0.05, the 5% of the paper; it maps to the cutoff frequency
	// f_c = CutoffFactor(Tol)·FMax — 3.04 for 5%).
	Tol float64
	// Ordering selects the fill-reducing ordering for the Cholesky of D
	// (default minimum degree).
	Ordering order.Method
	// LanczosMode selects the reorthogonalization strategy (default
	// Selective, i.e. LASO as in the paper's RCFIT).
	LanczosMode lanczos.Mode
	// TwoPass uses the memory-minimal two-pass Lanczos instead of storing
	// the Lanczos basis.
	TwoPass bool
	// DenseThreshold: when the number of internal nodes is at or below
	// this, the eigenproblem is solved densely (exact), which doubles as
	// the cross-validation path (default 96; set negative to disable).
	DenseThreshold int
	// XCacheBudget bounds the bytes used to cache the columns of
	// X = D⁻¹Q between the two passes that need them. Zero selects the
	// default of 512 MiB; a negative budget disables the cache and forces
	// the paper's column-at-a-time recomputation.
	XCacheBudget int64
	// Seed seeds the Lanczos starting vector (default 1).
	Seed int64
	// MaxPoles, when positive, caps the number of retained poles. Zero
	// keeps everything above the cutoff. On both back ends the cap keeps
	// the poles with the largest band-edge residue strength (selectPoles),
	// not the slowest ones.
	MaxPoles int
	// Shifts, when non-empty, switches Transform 2 to the
	// multi-expansion-point mode: D + s₀E is factored at s₀ = j2πf for
	// each listed frequency f (Hz; 0 is the paper's DC expansion), a
	// moment basis is built per shift, the bases are unioned with a
	// D-orthonormal modified Gram–Schmidt, and the pencil is
	// congruence-projected onto the union — so passivity is preserved by
	// construction exactly as in the single-point path. When the shift
	// set defines at least N candidate columns (ShiftMoments·m per DC
	// shift, 2·ShiftMoments·m per nonzero shift), the union could at
	// best span the whole internal space, so none of that runs: the
	// poles come from the dense E′ eigenpath instead. The shift set is
	// canonicalized (sorted ascending, duplicates dropped) before use, so
	// the projected model is independent of listing order.
	Shifts []float64
	// ShiftMoments is the number of block moments matched per expansion
	// point in multi-point mode (default 1: the zeroth moment of the
	// internal response at each shift).
	ShiftMoments int
	// PortClusters, when > 1, clusters the ports into this many groups by
	// electrical proximity on the conductance graph (TurboMOR-style) and
	// thins the multi-point candidate basis per cluster before the global
	// union — cutting the quadratic Gram–Schmidt cost on decks with
	// hundreds of ports. Only meaningful together with Shifts, and only
	// when the candidates number fewer than N: otherwise the union it
	// thins is never built (see Shifts).
	PortClusters int
	// ResiduePruneTol, when positive, is the pole selector's threshold:
	// it drops poles whose worst-case admittance contribution below FMax
	// is smaller than this fraction of the port-block admittance scale —
	// an extension beyond the paper: a pole can be below the frequency
	// cutoff yet couple so weakly to the ports that carrying its internal
	// node is pointless. Dropping poles preserves passivity (it is a
	// further congruence restriction) and adds at most ResiduePruneTol
	// relative error per pruned pole.
	ResiduePruneTol float64
}

// Resolve returns o with every zero-value default filled in and the
// shift set in canonical form (CanonicalShifts), or the first option
// outside its domain. It is the one validation site of the reduction
// options: every entry point resolves its options before any work, and
// pact.Options.Canonical resolves them before a request is keyed.
func (o Options) Resolve() (Options, error) {
	if o.Tol == 0 {
		o.Tol = 0.05
	}
	if o.DenseThreshold == 0 {
		o.DenseThreshold = 96
	}
	if o.XCacheBudget == 0 {
		o.XCacheBudget = 512 << 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ShiftMoments == 0 {
		o.ShiftMoments = 1
	}
	switch {
	case !(o.FMax > 0) || math.IsInf(o.FMax, 1):
		return o, fmt.Errorf("core: Options.FMax must be positive and finite, got %g", o.FMax)
	case !(o.Tol > 0 && o.Tol < 1):
		return o, fmt.Errorf("core: Options.Tol must be in (0,1), got %g", o.Tol)
	case o.MaxPoles < 0:
		return o, fmt.Errorf("core: Options.MaxPoles must be non-negative, got %d", o.MaxPoles)
	case o.ShiftMoments < 1:
		return o, fmt.Errorf("core: Options.ShiftMoments must be positive, got %d", o.ShiftMoments)
	case o.PortClusters < 0:
		return o, fmt.Errorf("core: Options.PortClusters must be non-negative, got %d", o.PortClusters)
	case o.PortClusters > 0 && len(o.Shifts) == 0:
		return o, errors.New("core: Options.PortClusters requires Shifts (port clustering thins the multi-point basis)")
	case !(o.ResiduePruneTol >= 0) || math.IsInf(o.ResiduePruneTol, 1):
		return o, fmt.Errorf("core: Options.ResiduePruneTol must be non-negative and finite, got %g", o.ResiduePruneTol)
	}
	var err error
	o.Shifts, err = CanonicalShifts(o.Shifts)
	return o, err
}

// Stats reports the work done by a reduction, the quantities Section 4 of
// the paper analyzes. Library callers (pact.Reduction.Stats) and
// perfbench's per-layer counters read every field; the JSON tags name
// the fields for a caller that serializes Stats whole, which no command
// does. The command-line surfaces show subsets. rcfitd's /reduce reply
// is its own service.Result, which copies Ports, Internal, ScratchBytes,
// Stage and Recoveries (as text) and reports the kept pole count K, not
// PolesFound; /statz sums Stage alone (stage_totals_ns). rcfit prints
// Ports, Internal, CutoffHz, the kept K and the multi-point counters,
// with -v also Supernodes, FactorFlops, Solves, MatVecs, CholeskyBytes,
// ScratchBytes and Stage, and every Recovery. PolesFound, LambdaC,
// PolesPruned, LanczosIters, Reorths, PeakVectors, CholeskyNNZ, DenseEig
// and XCached reach neither surface.
type Stats struct {
	Ports    int `json:"ports"`
	Internal int `json:"internal"`
	// PolesFound counts the poles λ ≥ λ_c the Transform 2 back end
	// returned, before the pole selector; the model keeps PolesFound
	// minus the poles the MaxPoles cap and the ResiduePruneTol threshold
	// (PolesPruned) drop.
	PolesFound    int     `json:"poles_found"`
	CutoffHz      float64 `json:"cutoff_hz"`
	LambdaC       float64 `json:"lambda_c"`
	PolesPruned   int     `json:"poles_pruned"` // poles dropped by residue pruning
	Solves        int     `json:"solves"`       // sparse triangular solve pairs (D backsolves)
	MatVecs       int     `json:"matvecs"`      // E (or E') matrix-vector products
	LanczosIters  int     `json:"lanczos_iters"`
	Reorths       int     `json:"reorths"`
	PeakVectors   int     `json:"peak_vectors"` // length-n vectors simultaneously live in Lanczos
	CholeskyNNZ   int     `json:"cholesky_nnz"`
	CholeskyBytes int64   `json:"cholesky_bytes"`
	// ScratchBytes is the transient memory of the numeric factorization
	// run (worker-owned dense update scratch, DAG scheduling state, and
	// the factor's pooled multi-RHS solve buffers). CholeskyBytes
	// includes it; it is broken out so rcfit -v can report how much of
	// the peak is pooled workspace rather than factor storage.
	ScratchBytes int64   `json:"scratch_bytes"`
	Supernodes   int     `json:"supernodes"`   // supernodal panels of the D factor (0: up-looking kernel)
	FactorFlops  float64 `json:"factor_flops"` // estimated flop count of the numeric factorization
	// DenseEig reports that the eigenproblem of E′ was solved densely:
	// single-point below DenseThreshold or as the Lanczos fallback, and
	// multi-point whenever the whole-space rule skips the basis union.
	DenseEig bool `json:"dense_eig"`
	XCached  bool `json:"x_cached"`
	// Multi-expansion-point counters (zero in single-point runs): the
	// canonicalized shift count, how many shifts were dropped by the
	// degradation ladder, and the port clusters used by the basis
	// thinning.
	Shifts        int `json:"shifts,omitempty"`
	ShiftsDropped int `json:"shifts_dropped,omitempty"`
	// BasisColumns is the number of candidate columns the surviving
	// shift set defines, ShiftMoments·m per DC shift plus
	// 2·ShiftMoments·m per nonzero shift — the count the whole-space rule
	// compares with N. BasisKept is the dimension of the projection
	// basis: the columns the Gram–Schmidt union kept, or N when the
	// candidates number at least N and the union is skipped for the
	// dense E′ eigenpath.
	BasisColumns int `json:"basis_columns,omitempty"`
	BasisKept    int `json:"basis_kept,omitempty"`
	PortClusters int `json:"port_clusters,omitempty"`
	// Recoveries lists every recovery ladder that fired during the
	// reduction, with the perturbation applied (Gamma) and its worst-case
	// DC admittance error bound (ErrBound) where applicable. An empty list
	// means the pipeline ran clean; a non-empty list means the result is
	// degraded in the recorded, bounded ways.
	Recoveries []resilience.Recovery `json:"recoveries,omitempty"`
	// Stage breaks the reduction's wall time down by pipeline stage, so a
	// front end that stops keeping pace with the factorizer is visible in
	// rcfit -v and /statz rather than buried in an aggregate total.
	Stage StageTimes `json:"stage_ns"`
}

// StageTimes is the per-stage wall-time breakdown of one deck-to-model
// run, in nanoseconds. The front-end stages (parse, stamp, assemble) are
// filled by callers that start from a netlist deck (pact.ReduceDeck);
// the ordering, symbolic and numeric-factorization stages are filled by
// Transform 1 and accumulate across recovery rungs, so a rescued run
// reports the total time spent, not just the winning rung's.
type StageTimes struct {
	ParseNs    int64 `json:"parse,omitempty"`
	StampNs    int64 `json:"stamp,omitempty"`
	AssembleNs int64 `json:"assemble,omitempty"`
	OrderNs    int64 `json:"order,omitempty"`
	SymbolicNs int64 `json:"symbolic,omitempty"`
	FactorNs   int64 `json:"factor,omitempty"`
	// Multi-expansion-point stages: the shifted complex factorizations
	// of D + s₀E (symbolic analysis shared across every shift) and the
	// Gram–Schmidt basis union.
	ShiftFactorNs int64 `json:"shift_factor,omitempty"`
	BasisUnionNs  int64 `json:"basis_union,omitempty"`
}

// Add accumulates o into st, field by field — the running totals /statz
// reports.
func (st *StageTimes) Add(o StageTimes) {
	st.ParseNs += o.ParseNs
	st.StampNs += o.StampNs
	st.AssembleNs += o.AssembleNs
	st.OrderNs += o.OrderNs
	st.SymbolicNs += o.SymbolicNs
	st.FactorNs += o.FactorNs
	st.ShiftFactorNs += o.ShiftFactorNs
	st.BasisUnionNs += o.BasisUnionNs
}

// CutoffFactor maps a relative error tolerance to the ratio f_c/f_max.
// Dropping a pole term s²rᵀr/(1+sλ) perturbs the admittance by the factor
// 1 − 1/√(1+(ω/ω_pole)²) at ω; bounding that by tol at ω_max gives
//
//	f_c/f_max = 1 / √( 1/(1−tol)² − 1 ).
//
// tol = 5% yields 3.04, the constant quoted in Section 5 of the paper.
func CutoffFactor(tol float64) float64 {
	if tol <= 0 || tol >= 1 {
		panic(fmt.Sprintf("core: tolerance %g outside (0,1)", tol))
	}
	x := math.Sqrt(1/((1-tol)*(1-tol)) - 1)
	return 1 / x
}

// CutoffFrequency returns f_c (Hz) for a maximum frequency and tolerance.
func CutoffFrequency(fmax, tol float64) float64 { return fmax * CutoffFactor(tol) }

// LambdaCutoff converts a cutoff frequency to the eigenvalue threshold of
// E′: poles at −1/λ (rad/s) with λ ≥ λ_c lie below f_c.
func LambdaCutoff(fc float64) float64 { return 1 / (2 * math.Pi * fc) }

// ePrimeOp is the matrix-free operator E′ = L⁻¹ E L⁻ᵀ.
type ePrimeOp struct {
	n     int
	fact  *chol.Factor
	ep    *sparse.CSR
	tmp   []float64
	stats *Stats
}

func (o *ePrimeOp) Dim() int { return o.n }

func (o *ePrimeOp) Apply(dst, src []float64) {
	copy(o.tmp, src)
	o.fact.LTSolve(o.tmp) // y = L⁻ᵀ x
	o.ep.MulVec(dst, o.tmp)
	o.fact.LSolve(dst) // L⁻¹ E y
	if o.stats != nil {
		o.stats.MatVecs++
	}
}

// Transformed is the state after the first (Cholesky-based) congruence
// transform: the exact port moment blocks A′ and B′, the Cholesky factor
// of D, and enough permuted sparse state to apply the E′ operator and
// recover connection columns. It is exported so the Padé-congruence
// baseline (internal/pade) can share Transform 1 and differ only in how
// it treats the internal block.
type Transformed struct {
	M, N           int
	APrime, BPrime *dense.Mat

	fact     *chol.Factor
	dp       *sparse.CSR // permuted (possibly γ-regularized) D, the factored matrix
	ep       *sparse.CSR
	qpT, rpT *sparse.CSR
	xCache   [][]float64
	cacheX   bool
	stats    *Stats
}

// Reduce runs the full PACT reduction on sys and returns the reduced
// model together with work statistics.
func Reduce(sys *System, opts Options) (*ReducedModel, *Stats, error) {
	return ReduceContext(context.Background(), sys, opts)
}

// ReduceContext is Reduce with cooperative cancellation: both transforms
// observe ctx between parallel work items and solver iterations, so a
// deadline or an interrupt stops the reduction at the next checkpoint
// with a resilience.StageError identifying where it stopped.
func ReduceContext(ctx context.Context, sys *System, opts Options) (*ReducedModel, *Stats, error) {
	opts, err := opts.Resolve()
	if err != nil {
		return nil, nil, err
	}
	t, stats, err := Transform1Context(ctx, sys, opts)
	if err != nil {
		return nil, nil, err
	}
	model, err := t.Transform2Context(ctx, opts)
	if err != nil {
		return nil, nil, err
	}
	return model, stats, nil
}

// cholGammaRungs is the escalation schedule of the Cholesky recovery
// ladder: γ starts near the noise floor of the diagonal scale and climbs
// three decades per rung. Matrices that a γ of 1e-3·‖diag(D)‖∞ cannot
// rescue (NaN/Inf contamination, wildly indefinite blocks) are reported
// as terminal rather than silently crushed by huge regularization.
var cholGammaRungs = []float64{1e-12, 1e-9, 1e-6, 1e-3}

// maxAbsDiag returns max_i |A_ii|, the scale reference for γ.
func maxAbsDiag(a *sparse.CSR) float64 {
	s := 0.0
	for i := 0; i < a.Rows; i++ {
		if v := math.Abs(a.At(i, i)); v > s {
			s = v
		}
	}
	return s
}

// Transform1 performs the Cholesky congruence transform (Section 3.1 of
// the paper): it orders and factors D, zeroes the connection conductance
// block, and produces the exact port blocks A′ and B′.
func Transform1(sys *System, opts Options) (*Transformed, *Stats, error) {
	return Transform1Context(context.Background(), sys, opts)
}

// Transform1Context is Transform1 with cooperative cancellation and a
// recovery ladder on the Cholesky of D: when D is not positive definite
// (classically a floating internal subnetwork), the factorization is
// retried on D + γI with γ escalating from ~1e-12·‖diag(D)‖∞ by three
// decades per rung. A rescued run records a resilience.Recovery in the
// stats carrying the applied γ and the first-order worst-case DC
// admittance perturbation ‖ΔY(0)‖_F ≤ γ·‖X‖²_F (X = D_γ⁻¹Q); an
// exhausted ladder returns a resilience.StageError listing every attempt.
func Transform1Context(ctx context.Context, sys *System, opts Options) (*Transformed, *Stats, error) {
	opts, err := opts.Resolve()
	if err != nil {
		return nil, nil, err
	}
	m, n := sys.M, sys.N
	stats := &Stats{Ports: m, Internal: n}
	stats.CutoffHz = CutoffFrequency(opts.FMax, opts.Tol)
	stats.LambdaC = LambdaCutoff(stats.CutoffHz)

	if n == 0 {
		return &Transformed{
			M: m, N: 0,
			APrime: denseFromCSR(sys.A, m),
			BPrime: denseFromCSR(sys.B, m),
			stats:  stats,
		}, stats, nil
	}

	// factorizeD analyzes the ordered D once (chol.Analyze picks the
	// kernel by order) and factors it through a private workspace: a
	// supernodal factor's many blocked multi-RHS solve passes (X, Z,
	// back-projection) then draw their per-worker buffers from one pool
	// instead of allocating per call. The workspace is used for this one
	// factorization only, so the factor owns its storage exactly as in
	// the unpooled path.
	// Every Analyze and factorizeD call folds its wall time into the
	// per-stage accounting, so a recovery ladder that reorders and
	// refactors reports the total time spent, not the winning rung's.
	factorizeD := func(dp *sparse.CSR, sym *order.Symbolic) (*chol.Factor, error) {
		stats.Stage.OrderNs += sym.OrderNs
		stats.Stage.SymbolicNs += sym.SymbolicNs
		//lint:ignore nondet stage wall-time accounting only, never feeds numeric results
		t0 := time.Now()
		an, err := chol.Analyze(dp, sym)
		if err != nil {
			return nil, err
		}
		// The supernodal amalgamation is symbolic work; everything after
		// this point is the numeric factorization.
		//lint:ignore nondet stage wall-time accounting only, never feeds numeric results
		t1 := time.Now()
		stats.Stage.SymbolicNs += t1.Sub(t0).Nanoseconds()
		defer func() {
			//lint:ignore nondet stage wall-time accounting only, never feeds numeric results
			stats.Stage.FactorNs += time.Since(t1).Nanoseconds()
		}()
		return an.Factorize(dp, an.NewWorkspace())
	}

	sym, dp := order.Analyze(sys.D, opts.Ordering)
	fact, err := factorizeD(dp, sym)
	gamma := 0.0
	if err != nil && errors.Is(err, chol.ErrNotPositiveDefinite) {
		attempts := []resilience.Attempt{{Action: "factorize(D)", Err: err}}
		scale := maxAbsDiag(sys.D)
		if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
			scale = 1
		}
		for _, rung := range cholGammaRungs {
			if cerr := ctx.Err(); cerr != nil {
				return nil, nil, resilience.Canceled(resilience.StageCholesky, ctx)
			}
			g := rung * scale
			// Regularizing may create diagonal entries the pattern lacked,
			// so the symbolic analysis is redone on the shifted matrix.
			dreg := sparse.AddDiagonal(sys.D, g)
			symG, dpG := order.Analyze(dreg, opts.Ordering)
			factG, ferr := factorizeD(dpG, symG)
			if ferr == nil {
				sym, dp, fact, gamma, err = symG, dpG, factG, g, nil
				stats.Recoveries = append(stats.Recoveries, resilience.Recovery{
					Stage:    resilience.StageCholesky,
					Action:   "diagonal regularization D+γI",
					Attempts: len(attempts) + 1,
					Gamma:    g,
					Reason:   attempts[0].Err.Error(),
				})
				break
			}
			attempts = append(attempts, resilience.Attempt{
				Action: fmt.Sprintf("factorize(D+γI), γ=%.3g", g),
				Err:    ferr,
			})
		}
		if err != nil {
			return nil, nil, resilience.NewStageError(resilience.StageCholesky,
				"escalating diagonal regularization exhausted", attempts, err)
		}
	} else if err != nil {
		return nil, nil, fmt.Errorf("core: Cholesky of internal conductance block: %w", err)
	}
	ep := sys.E.PermuteSym(sym.Perm)
	qp := sys.Q.PermuteRows(sym.Perm)
	rp := sys.R.PermuteRows(sym.Perm)
	stats.CholeskyNNZ = fact.NNZ()
	stats.CholeskyBytes = fact.Bytes()
	stats.ScratchBytes = fact.ScratchBytes()
	stats.Supernodes = fact.Supernodes()
	stats.FactorFlops = fact.FlopEstimate()
	qpT := qp.Transpose() // m×n, row j = column j of Q (in permuted internal order)
	rpT := rp.Transpose()

	t := &Transformed{
		M: m, N: n,
		fact: fact, dp: dp, ep: ep, qpT: qpT, rpT: rpT,
		stats: stats,
	}
	// Column cache for X = D⁻¹Q. When it fits the budget the second pass
	// (connection susceptance projection) reuses it; otherwise columns are
	// recomputed one at a time, the paper's memory-conserving strategy.
	t.cacheX = int64(n)*int64(m)*8 <= opts.XCacheBudget
	stats.XCached = t.cacheX
	if t.cacheX {
		t.xCache = make([][]float64, m)
	}

	// A′ = A − QᵀX,  B′ = B − S − Sᵀ + T with S = RᵀX and T = QᵀZ,
	// Z = D⁻¹EX (so T_ij = x_iᵀ E x_j, computed with sparse dots only).
	//
	// The m port columns are independent multi-RHS solves against the one
	// Cholesky factor, so they fan out across the worker pool; worker w
	// owns scratch[w], and column j owns every mirrored write pair
	// {(i,j),(j,i)} with i ≤ j, so no two goroutines touch the same cell
	// and the result is bit-identical at any GOMAXPROCS. Symmetry of A′
	// and T is constructional (dense.SetSym mirrors the i ≤ j values);
	// S = RᵀX is genuinely unsymmetric and is kept in full.
	aPrime := denseFromCSR(sys.A, m)
	bPrime := denseFromCSR(sys.B, m)
	sMat := dense.New(m, m)
	tMat := dense.New(m, m)
	type t1Scratch struct {
		qtx, rtx, qtz, w, x []float64
	}
	workers := par.Workers(m)
	scratch := make([]t1Scratch, workers)
	wcs := make([]workCounters, workers)
	for w := range scratch {
		scratch[w] = t1Scratch{
			qtx: make([]float64, m),
			rtx: make([]float64, m),
			qtz: make([]float64, m),
			w:   make([]float64, n),
			x:   make([]float64, n),
		}
	}
	// Per-column ‖x_j‖² slots for the regularization error bound: each j
	// owns its slot and the reduction over columns happens serially below,
	// so the bound is bit-identical at every worker count.
	var xNorm2 []float64
	if gamma > 0 {
		xNorm2 = make([]float64, m)
	}
	// Blocked path: when the X cache is enabled, the 2m port solves
	// (X = D⁻¹Q, then Z = D⁻¹EX) run as two multi-RHS blocks against the
	// one factor, streaming each factor panel once per solve chunk
	// instead of once per port. Each block column runs exactly the
	// arithmetic of its single solve, so the results — and the golden
	// outputs downstream — are unchanged bit for bit.
	var zBlock []float64
	if t.cacheX {
		xBlock := make([]float64, m*n)
		for j := 0; j < m; j++ {
			col := xBlock[j*n : (j+1)*n]
			cols, vals := qpT.Row(j)
			for p, i := range cols {
				col[i] = vals[p]
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, resilience.Canceled(resilience.StageCholesky, ctx)
		}
		fact.SolveMulti(xBlock, m)
		for j := 0; j < m; j++ {
			t.xCache[j] = xBlock[j*n : (j+1)*n]
		}
		zBlock = make([]float64, m*n)
		if merr := par.ForWorkersCtx(ctx, m, func(_, j int) {
			ep.MulVec(zBlock[j*n:(j+1)*n], t.xCache[j])
		}); merr != nil {
			return nil, nil, resilience.Canceled(resilience.StageCholesky, ctx)
		}
		fact.SolveMulti(zBlock, m)
		stats.Solves += 2 * m
		stats.MatVecs += m
	}
	perr := par.ForWorkersCtx(ctx, m, func(w, j int) {
		scr := &scratch[w]
		wc := &wcs[w]
		x := t.columnX(j, scr.x, wc)
		if xNorm2 != nil {
			xNorm2[j] = sparse.Dot(x, x)
		}
		qpT.MulVec(scr.qtx, x)
		rpT.MulVec(scr.rtx, x)
		z := scr.w
		if zBlock != nil {
			z = zBlock[j*n : (j+1)*n]
		} else {
			ep.MulVec(scr.w, x)
			wc.matVecs++
			fact.Solve(scr.w) // scr.w := z_j = D⁻¹ E x_j
			wc.solves++
		}
		qpT.MulVec(scr.qtz, z)
		for i := 0; i < m; i++ {
			sMat.Set(i, j, scr.rtx[i])
		}
		for i := 0; i <= j; i++ {
			aPrime.SetSym(i, j, aPrime.At(i, j)-scr.qtx[i])
			tMat.SetSym(i, j, scr.qtz[i])
		}
	})
	stats.merge(wcs)
	if perr != nil {
		return nil, nil, resilience.Canceled(resilience.StageCholesky, ctx)
	}
	if gamma > 0 {
		// First-order worst-case DC admittance perturbation of the
		// regularization: ΔY(0) ≈ γ·XᵀX, so ‖ΔY(0)‖_F ≤ γ·‖X‖²_F.
		sum := 0.0
		for _, v := range xNorm2 {
			sum += v
		}
		stats.Recoveries[len(stats.Recoveries)-1].ErrBound = gamma * sum
	}
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			bPrime.SetSym(i, j, bPrime.At(i, j)-sMat.At(i, j)-sMat.At(j, i)+tMat.At(i, j))
		}
	}
	if check.Enabled {
		// Congruence preserves symmetry and definiteness: the exact port
		// blocks of Transform 1 must inherit both from the input system.
		// Definiteness is judged on the scale of the blocks A and B the
		// updates start from: a port with no path to ground has A′ = 0
		// exactly, so the computed A′ is rounding of A's size.
		check.Symmetric("Transform1 port conductance block A'", aPrime, check.DefaultTol)
		check.Symmetric("Transform1 port susceptance block B'", bPrime, check.DefaultTol)
		check.NonNegDefRel("Transform1 port conductance block A'", aPrime, denseFromCSR(sys.A, m), check.DefaultTol)
		check.NonNegDefRel("Transform1 port susceptance block B'", bPrime, denseFromCSR(sys.B, m), check.DefaultTol)
	}
	t.APrime = aPrime
	t.BPrime = bPrime
	return t, stats, nil
}

// columnX returns column j of X = D⁻¹Q: the cached column when the
// cache is on (Transform 1 fills every slot before any caller can ask),
// recomputed into buf otherwise. Solve counts go to wc, never to the
// shared stats, so concurrent callers for distinct j are race-free.
func (t *Transformed) columnX(j int, buf []float64, wc *workCounters) []float64 {
	if t.cacheX {
		return t.xCache[j]
	}
	for i := range buf {
		buf[i] = 0
	}
	cols, vals := t.qpT.Row(j)
	for p, i := range cols {
		buf[i] = vals[p]
	}
	t.fact.Solve(buf)
	wc.solves++
	return buf
}

// EOp returns the matrix-free operator E′ = L⁻¹ E L⁻ᵀ.
func (t *Transformed) EOp() lanczos.Operator {
	return &ePrimeOp{n: t.N, fact: t.fact, ep: t.ep, tmp: make([]float64, t.N), stats: t.stats}
}

// RPrimeBlock computes all M columns of R′ = L⁻¹(R − EX): the
// connection block P = R − EX (connectionBlock) forward-solved as one
// blocked multi-RHS LSolveMulti, which streams each factor panel once
// per solve chunk. Forming all of R′ takes the m·n memory the Padé-based
// methods need and PACT avoids; it is exported for exactly that
// comparison. The block is bit-identical at every GOMAXPROCS.
func (t *Transformed) RPrimeBlock() [][]float64 {
	block, cols, _ := t.connectionBlock(context.Background()) // an uncancelable context cannot fail
	t.fact.LSolveMulti(block, t.M)
	t.stats.Solves += t.M
	return cols
}

// connectionBlock assembles the m columns of P = R − EX in the permuted
// internal frame, column-major in block with cols[j] its column j. It is
// the right-hand side RPrimeBlock forward-solves, and the multi-point
// basis applies (D + s₀E)⁻¹ to it unsolved. Column j is owned by one
// goroutine, so the block is bit-identical at every GOMAXPROCS. The only
// error is ctx's.
func (t *Transformed) connectionBlock(ctx context.Context) (block []float64, cols [][]float64, err error) {
	m, n := t.M, t.N
	block = make([]float64, m*n)
	cols = make([][]float64, m)
	workers := par.Workers(m)
	wcs := make([]workCounters, workers)
	xbufs := make([][]float64, workers)
	for w := range xbufs {
		xbufs[w] = make([]float64, n)
	}
	err = par.ForWorkersCtx(ctx, m, func(w, j int) {
		col := block[j*n : (j+1)*n]
		cols[j] = col
		x := t.columnX(j, xbufs[w], &wcs[w])
		t.ep.MulVec(col, x)
		wcs[w].matVecs++
		for i := range col {
			col[i] = -col[i]
		}
		rcols, vals := t.rpT.Row(j)
		for p, i := range rcols {
			col[i] += vals[p]
		}
	})
	t.stats.merge(wcs)
	return block, cols, err
}

// Stats returns the running statistics of this transform.
func (t *Transformed) Stats() *Stats { return t.stats }

// Transform2 performs the pole-analysis congruence transform (Section
// 3.2): a Rayleigh–Ritz projection of E′ = L⁻¹EL⁻ᵀ whose eigenvalues
// above λ_c are kept, projected onto the connection block.
func (t *Transformed) Transform2(opts Options) (*ReducedModel, error) {
	return t.Transform2Context(context.Background(), opts)
}

// Transform2Context is Transform2 with cooperative cancellation. One of
// two back ends picks the subspace E′ is projected on and returns every
// pole λ ≥ λ_c with its residue row of R_k:
//
//   - single-point (no Shifts, singlePointPoles): the Krylov space of
//     Lanczos or two-pass Lanczos, or the whole space by the dense
//     eigenpath;
//   - multi-point (Shifts, multiPointPoles): the union of the moment
//     bases at the expansion points.
//
// One tail then checks the poles, records how many the back end found
// (Stats.PolesFound), applies the one pole selector (selectPoles: the
// MaxPoles cap and the ResiduePruneTol threshold) and the passivity
// check, and assembles the model.
func (t *Transformed) Transform2Context(ctx context.Context, opts Options) (*ReducedModel, error) {
	opts, err := opts.Resolve()
	if err != nil {
		return nil, err
	}
	m, stats := t.M, t.stats
	if t.N == 0 {
		return &ReducedModel{M: m, A: t.APrime, B: t.BPrime, R: dense.New(0, m)}, nil
	}
	poles := t.singlePointPoles
	if len(opts.Shifts) > 0 {
		poles = t.multiPointPoles
	}
	vals, rk, err := poles(ctx, opts)
	if err != nil {
		return nil, err
	}
	if check.Enabled {
		check.PoleRealNonneg("Transform2 retained poles", vals)
	}
	stats.PolesFound = len(vals)
	var pruned int
	vals, rk, pruned = selectPoles(vals, rk, t.APrime, t.BPrime, opts)
	stats.PolesPruned += pruned
	model := &ReducedModel{M: m, Lambda: vals, A: t.APrime, B: t.BPrime, R: rk}
	if check.Enabled {
		gr, cr := model.Matrices()
		check.ReducedPassive("Transform2 realized reduced model", gr, cr, check.DefaultTol)
	}
	return model, nil
}

// singlePointPoles is the paper's Transform 2 back end: the eigenpairs
// of E′ above λ_c, found densely for small N (densePoles) and otherwise
// by LASO (or two-pass Lanczos), projected onto the connection block.
//
// Lanczos stagnation has a recovery ladder: a run that fails with
// lanczos.ErrNoConvergence is restarted once with a fresh starting seed
// and full reorthogonalization; if that also stagnates, the eigenproblem
// falls back to the dense eigenpath (exact, the same code the
// DenseThreshold cross-validation uses) with the reason recorded in
// Stats.Recoveries and Stats.DenseEig set. Cancellation and
// non-stagnation failures are never retried.
func (t *Transformed) singlePointPoles(ctx context.Context, opts Options) ([]float64, *dense.Mat, error) {
	stats := t.stats
	if opts.DenseThreshold >= 0 && t.N <= opts.DenseThreshold {
		return t.densePoles(ctx, resilience.StagePoleAnalysis)
	}
	var vals []float64
	var vt *dense.Mat
	op := t.EOp()
	lopts := lanczos.Options{
		Cutoff:  stats.LambdaC,
		Mode:    opts.LanczosMode,
		ConvTol: lanczosConvTol,
		Seed:    opts.Seed,
	}
	run := func(o lanczos.Options) (*lanczos.Result, error) {
		if opts.TwoPass {
			return lanczos.TwoPassCtx(ctx, op, o)
		}
		return lanczos.FindAboveCtx(ctx, op, o)
	}
	res, lerr := run(lopts)
	if lerr != nil && errors.Is(lerr, lanczos.ErrNoConvergence) {
		// Recovery ladder. Rung 1: restart with a fresh starting vector
		// and full reorthogonalization — stagnation from an unlucky seed
		// or from orthogonality loss is cured by exactly this.
		attempts := []resilience.Attempt{{
			Action: fmt.Sprintf("laso(mode=%v, seed=%d)", lopts.Mode, lopts.Seed),
			Err:    lerr,
		}}
		retry := lopts
		retry.Seed = lopts.Seed + 1
		retry.Mode = lanczos.Full
		res2, rerr := run(retry)
		switch {
		case rerr == nil:
			res, lerr = res2, nil
			stats.Recoveries = append(stats.Recoveries, resilience.Recovery{
				Stage:    resilience.StagePoleAnalysis,
				Action:   "lanczos restart (fresh seed, full reorthogonalization)",
				Attempts: 2,
				Reason:   attempts[0].Err.Error(),
			})
		case errors.Is(rerr, lanczos.ErrNoConvergence):
			// Rung 2: dense eigenpath — exact and unconditionally
			// convergent, at the O(n²) memory the paper avoids; a
			// degraded-but-correct answer beats none.
			attempts = append(attempts, resilience.Attempt{
				Action: "lanczos restart (fresh seed, full reorthogonalization)",
				Err:    rerr,
			})
			dvals, dvt, derr := t.denseEigAbove(ctx, stats.LambdaC, resilience.StagePoleAnalysis)
			if derr != nil {
				if resilience.IsCancellation(derr) {
					return nil, nil, resilience.Canceled(resilience.StagePoleAnalysis, ctx)
				}
				attempts = append(attempts, resilience.Attempt{Action: "dense eigenpath fallback", Err: derr})
				return nil, nil, resilience.NewStageError(resilience.StagePoleAnalysis,
					"recovery ladder exhausted", attempts, lerr)
			}
			stats.DenseEig = true
			stats.Recoveries = append(stats.Recoveries, resilience.Recovery{
				Stage:    resilience.StagePoleAnalysis,
				Action:   "dense eigenpath fallback",
				Attempts: 3,
				Reason:   attempts[0].Err.Error(),
			})
			vals, vt, res, lerr = dvals, dvt, nil, nil
		default:
			lerr = rerr // cancellation or a hard failure on the retry
		}
	}
	if lerr != nil {
		if resilience.IsCancellation(lerr) {
			return nil, nil, resilience.Canceled(resilience.StagePoleAnalysis, ctx)
		}
		return nil, nil, fmt.Errorf("core: pole analysis (LASO): %w", lerr)
	}
	if res != nil {
		vals = res.Values
		vt = res.Vectors.T()
		stats.LanczosIters = res.Iterations
		stats.Reorths = res.Reorths
		stats.PeakVectors = res.PeakVectors
	}
	rk, err := t.residueRows(ctx, vt)
	if err != nil {
		return nil, nil, resilience.Canceled(resilience.StagePoleAnalysis, ctx)
	}
	return vals, rk, nil
}

// densePoles is the dense E′ eigenpath (denseEigAbove) with the residue
// projection (residueRows): every pole λ ≥ λ_c exactly, for small N on
// the single-point back end and for the multi-point whole-space rule.
// stage names the back end in a cancellation error.
func (t *Transformed) densePoles(ctx context.Context, stage resilience.Stage) ([]float64, *dense.Mat, error) {
	t.stats.DenseEig = true
	vals, vt, err := t.denseEigAbove(ctx, t.stats.LambdaC, stage)
	if err != nil {
		if resilience.IsCancellation(err) {
			return nil, nil, resilience.Canceled(stage, ctx)
		}
		return nil, nil, err
	}
	rk, err := t.residueRows(ctx, vt)
	if err != nil {
		return nil, nil, resilience.Canceled(stage, ctx)
	}
	return vals, rk, nil
}

// residueRows projects the eigenvectors of E′ in the rows of vt (k×n,
// overwritten) onto the connection block: R_k = U_kᵀR′ = Z_kᵀP with
// Z_k = L⁻ᵀU_k and P = R − EX, that is
//
//	R_k = Z_kᵀR − (EZ_k)ᵀX,
//
// the sparse columns of R against Z_k, less one blocked dense product of
// EZ_k with the cached (or recomputed) columns of X. The product runs
// over tiles of four eigenvector rows by two port columns, and every
// entry sums its n terms in ascending order from zero, so each entry has
// the bits of the plain dot product whatever the tiling. The solve, the
// k products with E and the port tiles each fan out across the pool
// with per-worker counters and scratch; every slot is written by exactly
// one goroutine. The only error is ctx's.
func (t *Transformed) residueRows(ctx context.Context, vt *dense.Mat) (*dense.Mat, error) {
	m, n, k := t.M, t.N, vt.R
	stats := t.stats
	rk := dense.New(k, m)
	if k == 0 {
		return rk, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Z_k = L⁻ᵀ U_k as one blocked transpose solve — bit-identical to
	// k single LTSolve calls, but each factor panel streams once per
	// solve chunk.
	zk := vt.Data
	t.fact.LTSolveMulti(zk, k)
	stats.Solves += k
	ez := make([]float64, k*n)
	zwcs := make([]workCounters, par.Workers(k))
	zerr := par.ForWorkersCtx(ctx, k, func(w, c int) {
		t.ep.MulVec(ez[c*n:(c+1)*n], zk[c*n:(c+1)*n])
		zwcs[w].matVecs++
	})
	stats.merge(zwcs)
	if zerr != nil {
		return nil, zerr
	}
	tiles := (m + 1) / 2
	workers := par.Workers(tiles)
	wcs := make([]workCounters, workers)
	xbufs := make([][]float64, 2*workers) // nil buffers when X is cached
	if !t.cacheX {
		for w := range xbufs {
			xbufs[w] = make([]float64, n)
		}
	}
	perr := par.ForWorkersCtx(ctx, tiles, func(w, tile int) {
		j0 := 2 * tile
		x0 := t.columnX(j0, xbufs[2*w], &wcs[w])
		x1 := x0
		if j0+1 < m {
			x1 = t.columnX(j0+1, xbufs[2*w+1], &wcs[w])
		}
		residueTile(rk, ez, x0, x1, j0, j0+1 < m)
		for j := j0; j < j0+2 && j < m; j++ {
			cols, vals := t.rpT.Row(j) // column j of permuted R
			for c := 0; c < k; c++ {
				z := zk[c*n : (c+1)*n]
				s := 0.0
				for p, i := range cols {
					s += vals[p] * z[i]
				}
				rk.Data[c*m+j] = s - rk.Data[c*m+j]
			}
		}
	})
	stats.merge(wcs)
	if perr != nil {
		return nil, perr
	}
	return rk, nil
}

// residueTile writes (EZ_k)ᵀX for port columns j0 and, when two is set,
// j0+1 into rk: rk[c][j] = Σᵢ ez[c][i]·x_j[i] for every row c of the
// k×n block ez, four rows at a time so that each loaded entry of x0
// and x1 serves four products. Each sum runs over i ascending from
// zero, the order of the plain dot product.
func residueTile(rk *dense.Mat, ez, x0, x1 []float64, j0 int, two bool) {
	k, m := rk.R, rk.C
	n := len(x0)
	x1 = x1[:n]
	c := 0
	for ; c+4 <= k; c += 4 {
		e0 := ez[c*n : (c+1)*n]
		e1 := ez[(c+1)*n : (c+2)*n]
		e2 := ez[(c+2)*n : (c+3)*n]
		e3 := ez[(c+3)*n : (c+4)*n]
		var s00, s10, s20, s30, s01, s11, s21, s31 float64
		for i, a := range x0 {
			b := x1[i]
			s00 += e0[i] * a
			s10 += e1[i] * a
			s20 += e2[i] * a
			s30 += e3[i] * a
			s01 += e0[i] * b
			s11 += e1[i] * b
			s21 += e2[i] * b
			s31 += e3[i] * b
		}
		rk.Data[c*m+j0], rk.Data[(c+1)*m+j0] = s00, s10
		rk.Data[(c+2)*m+j0], rk.Data[(c+3)*m+j0] = s20, s30
		if two {
			rk.Data[c*m+j0+1], rk.Data[(c+1)*m+j0+1] = s01, s11
			rk.Data[(c+2)*m+j0+1], rk.Data[(c+3)*m+j0+1] = s21, s31
		}
	}
	for ; c < k; c++ {
		e0 := ez[c*n : (c+1)*n]
		var s0, s1 float64
		for i, a := range x0 {
			s0 += e0[i] * a
			s1 += e0[i] * x1[i]
		}
		rk.Data[c*m+j0] = s0
		if two {
			rk.Data[c*m+j0+1] = s1
		}
	}
}

// poleScores returns each pole's worst-case contribution to Y(s) over
// the band [0, ω_max], ω_max = 2π·fmax: the term s²rᵢᵀrᵢ/(1+sλᵢ) peaks at
// the band edge with magnitude ω²‖rᵢ‖²/√(1+(ωλᵢ)²), rᵢ row i of rk. The
// pole selector ranks by it.
func poleScores(vals []float64, rk *dense.Mat, fmax float64) []float64 {
	w := 2 * math.Pi * fmax
	score := make([]float64, len(vals))
	for i, lam := range vals {
		nrm2 := 0.0
		for j := 0; j < rk.C; j++ {
			v := rk.At(i, j)
			nrm2 += v * v
		}
		score[i] = w * w * nrm2 / math.Sqrt(1+w*lam*w*lam)
	}
	return score
}

// selectRows returns the poles vals[rows] and the matching rows of rk,
// in the order of rows. Dropping rows of R_k is a congruence
// restriction, so the selected model stays passive.
func selectRows(vals []float64, rk *dense.Mat, rows []int) ([]float64, *dense.Mat) {
	outVals := make([]float64, len(rows))
	out := dense.New(len(rows), rk.C)
	for c, i := range rows {
		outVals[c] = vals[i]
		for j := 0; j < rk.C; j++ {
			out.Set(c, j, rk.At(i, j))
		}
	}
	return outVals, out
}

// selectPoles is Transform 2's one pole selector, run on every pole
// λ ≥ λ_c (vals λ-descending, rk their residue rows) from either back
// end. It ranks the poles by band-edge score (poleScores), ties toward
// the slower pole, and keeps them while fewer than opts.MaxPoles are
// kept (no cap at 0) and the score is at least opts.ResiduePruneTol
// times the admittance scale of the exact port blocks a, b at FMax (no
// threshold when either is 0). The kept poles return λ-descending;
// pruned counts those the threshold dropped from the cap's set.
func selectPoles(vals []float64, rk, a, b *dense.Mat, opts Options) (kept []float64, keptRk *dense.Mat, pruned int) {
	limit := len(vals)
	if opts.MaxPoles > 0 && opts.MaxPoles < limit {
		limit = opts.MaxPoles
	}
	thr := 0.0
	if opts.ResiduePruneTol > 0 {
		w := 2 * math.Pi * opts.FMax
		scale := 0.0
		for i := 0; i < a.R; i++ {
			for j := 0; j < a.C; j++ {
				if v := math.Abs(a.At(i, j)) + w*math.Abs(b.At(i, j)); v > scale {
					scale = v
				}
			}
		}
		thr = opts.ResiduePruneTol * scale
	}
	score := poleScores(vals, rk, opts.FMax)
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	// vals arrives λ-descending, so the stable sort breaks score ties
	// toward the slower pole, and ascending index order restores λ order.
	sort.SliceStable(idx, func(x, y int) bool { return score[idx[x]] > score[idx[y]] })
	n := 0
	for n < limit && (thr == 0 || score[idx[n]] >= thr) {
		n++
	}
	if n == len(vals) {
		return vals, rk, 0
	}
	sel := idx[:n]
	sort.Ints(sel)
	kept, keptRk = selectRows(vals, rk, sel)
	return kept, keptRk, limit - n
}

// denseEigAbove builds E′ explicitly by applying the operator to unit
// vectors and solves the dense symmetric eigenproblem for the
// eigenpairs λ ≥ cutoff (symEigAbove) — the exact reference path for
// small internal blocks, doubling as the cross-validation of the Lanczos
// path. The n independent operator columns fan out across the pool
// (each worker owns a stats-free E′ operator and its scratch); column j
// owns the mirrored pair writes for i ≤ j, so E′ is constructionally
// symmetric and bit-identical at every GOMAXPROCS. The eigensolve itself
// is sequential. stage names the back end in a recorded Recovery.
func (t *Transformed) denseEigAbove(ctx context.Context, cutoff float64, stage resilience.Stage) ([]float64, *dense.Mat, error) {
	n := t.N
	eMat := dense.New(n, n)
	workers := par.Workers(n)
	ops := make([]*ePrimeOp, workers)
	srcs := make([][]float64, workers)
	dsts := make([][]float64, workers)
	for w := range ops {
		ops[w] = &ePrimeOp{n: n, fact: t.fact, ep: t.ep, tmp: make([]float64, n)}
		srcs[w] = make([]float64, n)
		dsts[w] = make([]float64, n)
	}
	if err := par.ForWorkersCtx(ctx, n, func(w, j int) {
		src, dst := srcs[w], dsts[w]
		for i := range src {
			src[i] = 0
		}
		src[j] = 1
		ops[w].Apply(dst, src)
		for i := 0; i <= j; i++ {
			eMat.SetSym(i, j, dst[i])
		}
	}); err != nil {
		return nil, nil, fmt.Errorf("core: dense eigenpath canceled: %w", err)
	}
	t.stats.MatVecs += n
	vals, vt, err := symEigAbove(eMat, cutoff, t.stats, stage)
	if err != nil {
		return nil, nil, fmt.Errorf("core: dense eigensolve of E′: %w", err)
	}
	return vals, vt, nil
}

// symEigAbove solves the dense symmetric eigenproblem of a (destroyed)
// for the eigenvalues ≥ cutoff, descending, with their eigenvectors as
// the rows of the returned matrix (dense.SymEigAbove). E′
// (denseEigAbove) and the projected multi-point pencil Ê share it, so
// both keep the same poles for the same spectrum. An inverse iteration
// that fails to converge makes dense.SymEigAbove finish the full
// eigensolve instead; that is exact, and recorded in stats as a
// Recovery of stage.
func symEigAbove(a *dense.Mat, cutoff float64, stats *Stats, stage resilience.Stage) ([]float64, *dense.Mat, error) {
	vals, vt, fallback, err := dense.SymEigAbove(a, cutoff)
	if err != nil {
		return nil, nil, err
	}
	if fallback != nil {
		stats.Recoveries = append(stats.Recoveries, resilience.Recovery{
			Stage:    stage,
			Action:   "full dense eigensolve",
			Attempts: 2,
			Reason:   fallback.Error(),
		})
	}
	return vals, vt, nil
}

func denseFromCSR(a *sparse.CSR, m int) *dense.Mat {
	out := dense.New(m, m)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for p, j := range cols {
			out.Set(i, j, vals[p])
		}
	}
	return out
}
