// Package lanczos implements the symmetric Lanczos eigensolvers used by
// PACT's pole-analysis transform: the plain recursion, full
// reorthogonalization, and the paper's choice — the Lanczos Algorithm with
// Selective Orthogonalization (LASO, Parlett & Scott), which
// orthogonalizes new Lanczos vectors against the small set of converged
// Ritz vectors only (loss of orthogonality happens along exactly those
// directions), rather than against the whole Lanczos basis.
//
// The solver finds every eigenvalue of a symmetric operator that lies
// above a caller-specified cutoff, together with the corresponding
// (approximate) eigenvectors. For PACT the operator is
// x ↦ L⁻¹ E L⁻ᵀ x, applied matrix-free with sparse triangular solves, and
// the cutoff is λ_c = 1/(2π f_c): eigenvalues above λ_c correspond to the
// low-frequency poles that must be preserved.
package lanczos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/check"
	"repro/internal/dense"
	"repro/internal/resilience/inject"
)

// ErrNoConvergence is the sentinel wrapped by every stagnation failure of
// the iterative eigensolvers (FindAbove, TwoPass). Callers match it with
// errors.Is to decide whether a restart with different options — or the
// dense fallback — is worth attempting; other error causes (a broken
// tridiagonal eigensolve, cancellation) are not retryable.
var ErrNoConvergence = errors.New("lanczos: no convergence")

// Operator is a symmetric linear operator.
type Operator interface {
	// Dim returns the dimension n of the operator.
	Dim() int
	// Apply computes dst = A src. dst and src do not alias.
	Apply(dst, src []float64)
}

// Mode selects the reorthogonalization strategy.
type Mode int

const (
	// Selective is LASO: orthogonalize against converged Ritz vectors when
	// the loss-of-orthogonality estimate exceeds sqrt(machine epsilon).
	Selective Mode = iota
	// Full orthogonalizes every new vector against all previous Lanczos
	// vectors (accurate but O(k) memory and O(k²) vector products, the
	// inefficiency the paper's Section 3.2 calls out).
	Full
	// None performs no reorthogonalization; spurious duplicate Ritz values
	// may appear for long runs. Exposed for the ablation benches.
	None
)

func (m Mode) String() string {
	switch m {
	case Selective:
		return "selective"
	case Full:
		return "full"
	case None:
		return "none"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Options configures FindAbove.
type Options struct {
	// Cutoff: find all eigenvalues >= Cutoff. Required (may be zero or
	// negative to request the full positive spectrum of an NND operator;
	// use a small positive value to bound work).
	Cutoff float64
	// Mode is the reorthogonalization strategy (default Selective).
	Mode Mode
	// MaxIter caps the number of Lanczos steps (default: Dim()).
	MaxIter int
	// ConvTol is the relative Ritz residual bound for convergence
	// (default 1e-8).
	ConvTol float64
	// Seed seeds the deterministic starting vector (default 1).
	Seed int64
}

// Result reports the eigenpairs found above the cutoff.
type Result struct {
	// Values holds the converged eigenvalues >= Cutoff, descending.
	Values []float64
	// Vectors holds the matching orthonormal Ritz vectors as columns of an
	// n-by-len(Values) matrix.
	Vectors *dense.Mat
	// Iterations is the number of Lanczos steps taken.
	Iterations int
	// MatVecs counts operator applications.
	MatVecs int
	// Reorths counts selective/full orthogonalization vector operations.
	Reorths int
	// PeakVectors is the maximum number of length-n vectors simultaneously
	// held, the quantity compared in the Section 4 memory analysis.
	PeakVectors int
}

const machEps = 2.220446049250313e-16

// tailIters is how many steps TwoPass continues after its stopping
// criterion is met, so late copies of multiple eigenvalues can emerge
// through deflation.
const tailIters = 12

// lasoMargin is how many consecutive steps, the last certifying step
// included, LASO must see nothing above the cutoff unconverged (nor able
// to cross it) before it stops; a throttled check counts for the steps
// since the previous one. The pairs LASO keeps are certified as they
// converge and do not depend on where the run stops, so the margin's one
// job is to let late copies of multiple eigenvalues emerge through
// deflation for finish to certify.
const lasoMargin = 6

// ritzPair is an eigenpair approximation that passed the explicit
// residual check: its value θ, unit vector u and residual ‖Au − θu‖.
type ritzPair struct {
	val, resid float64
	vec        []float64
}

// FindAbove runs the Lanczos iteration on op until every eigenvalue above
// opts.Cutoff has converged (or MaxIter is reached, which returns an
// error wrapping ErrNoConvergence).
func FindAbove(op Operator, opts Options) (*Result, error) {
	return FindAboveCtx(context.Background(), op, opts)
}

// FindAboveCtx is FindAbove with cooperative cancellation: the context is
// checked once per Lanczos step (each step costs at least one operator
// application, so the check is free by comparison), and a canceled run
// returns ctx.Err() wrapped with the iteration it stopped at.
func FindAboveCtx(ctx context.Context, op Operator, opts Options) (*Result, error) {
	n := op.Dim()
	if n == 0 {
		return &Result{Vectors: dense.New(0, 0)}, nil
	}
	opts = opts.withDefaults(n)
	rng := rand.New(rand.NewSource(opts.Seed))

	// Lanczos vector history (columns). Needed to form Ritz vectors; the
	// low-memory two-pass variant lives in twopass.go.
	w := make([][]float64, 0, 32)
	var alpha, beta []float64

	cur := randUnit(rng, n)
	var prev []float64
	betaPrev := 0.0
	av := make([]float64, n)

	res := &Result{}
	// Certified Ritz pairs, kept as they are for the result; their
	// vectors are LASO's selective orthogonalization targets.
	var pairs []ritzPair
	var ritzVecs [][]float64
	convergedAt := make(map[int]bool) // registered genuine Ritz values (bucketed)
	spuriousAt := make(map[int]bool)  // certified-spurious Ritz values (bucketed)
	au := make([]float64, n)

	stableFor := 0

	// exhausted ends a run whose Krylov space is the whole space. With
	// full reorthogonalization T's eigensystem is (backward stably) the
	// operator's; with selective or no orthogonalization the small end of
	// a widely spread spectrum may be corrupted, so the run is redone in
	// Full mode — exhaustion implies n is commensurate with the number of
	// wanted eigenpairs, where the O(n²) vectors are affordable. The
	// final T then resolves every eigenpair to working precision, while a
	// pair certified earlier holds only ConvTol relative to T's scale,
	// which is coarse for the small end of a widely spread spectrum, so
	// finish certifies from the final T alone.
	exhausted := func() (*Result, error) {
		if opts.Mode != Full {
			full := opts
			full.Mode = Full
			fres, err := FindAboveCtx(ctx, op, full)
			if err != nil {
				return nil, err
			}
			fres.MatVecs += res.MatVecs
			fres.Reorths += res.Reorths
			return fres, nil
		}
		return finish(op, w, alpha, beta[:len(beta)-1], opts, nil, nil, res)
	}

	for j := 0; j < opts.MaxIter; j++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("lanczos: canceled at iteration %d: %w", j, err)
		}
		if inject.Enabled && inject.ShouldFail(inject.LanczosIter, j) {
			return nil, fmt.Errorf("%w: injected stagnation at iteration %d (cutoff %g)", ErrNoConvergence, j, opts.Cutoff)
		}
		//lint:ignore defersmell storing the Lanczos basis is the algorithm's memory model (reported as PeakVectors); the two-pass variant avoids it
		w = append(w, append([]float64(nil), cur...))
		op.Apply(av, cur)
		res.MatVecs++
		a := dot(cur, av)
		alpha = append(alpha, a)
		for i := range av {
			av[i] -= a * cur[i]
			if prev != nil {
				av[i] -= betaPrev * prev[i]
			}
		}
		switch opts.Mode {
		case Full:
			for _, wk := range w {
				c := dot(wk, av)
				axpy(av, -c, wk)
				res.Reorths++
			}
			// Second pass for numerical safety (classic iterated MGS).
			for _, wk := range w {
				c := dot(wk, av)
				axpy(av, -c, wk)
			}
		case Selective:
			// Orthogonalize against the converged Ritz vectors. Loss of
			// orthogonality in finite precision happens precisely along
			// converged Ritz directions (Paige), so purging those
			// components every step keeps the recursion clean at O(k·n)
			// per step with k = #converged — the LASO cost the paper's
			// Section 4 contrasts with full reorthogonalization.
			for _, u := range ritzVecs {
				c := dot(u, av)
				axpy(av, -c, u)
				res.Reorths++
			}
		case None:
			// nothing
		}
		b := norm2(av)
		res.Iterations = j + 1
		scaleT := tScale(alpha, beta)
		if b <= 1e3*machEps*scaleT {
			// Invariant subspace: restart with a fresh random direction
			// orthogonal to everything seen so far.
			beta = append(beta, 0)
			nv := randUnit(rng, n)
			for _, wk := range w {
				axpy(nv, -dot(wk, nv), wk)
			}
			for _, u := range ritzVecs {
				axpy(nv, -dot(u, nv), u)
			}
			nb := norm2(nv)
			if nb < 1e-12 {
				return exhausted()
			}
			scal(nv, 1/nb)
			prev = nil
			betaPrev = 0
			cur = nv
			continue
		}
		scal(av, 1/b)
		// Rotate the three working buffers instead of cloning av: w already
		// holds its own copy of every Lanczos vector, so cur/prev/av can
		// cycle. av inherits the retired prev buffer (nil on the first
		// iteration and after a restart).
		prev, cur, av = cur, av, prev
		if av == nil {
			av = make([]float64, n)
		}
		betaPrev = b
		beta = append(beta, b)

		// Convergence check. Cheap early on, throttled once j grows.
		checkEvery := 1 + j/20
		if (j+1)%checkEvery != 0 && j+1 < opts.MaxIter {
			continue
		}
		vals, z, err := dense.TridiagEig(alpha, beta[:len(beta)-1])
		if err != nil {
			return nil, fmt.Errorf("lanczos: tridiagonal eigensolve failed: %w", err)
		}
		k := len(vals)
		allAboveConverged := true
		anyUnconvergedCouldPass := false
		newConverged := false
		for i := k - 1; i >= 0; i-- {
			bound := b * math.Abs(z.At(k-1, i))
			conv := bound <= opts.ConvTol*scaleT
			key := keyOf(vals[i], scaleT)
			if conv && vals[i] >= opts.Cutoff && !convergedAt[key] && !spuriousAt[key] {
				// Certify the candidate with an explicit residual before
				// registering it: T can converge values that are not
				// eigenvalues of A once orthogonality among the
				// unconverged directions degrades (they betray themselves
				// by ‖Au − θu‖ ≈ θ instead of ≈ bound).
				u := combine(w, z, i)
				orthAgainst(u, ritzVecs)
				nb := norm2(u)
				if nb > 1e-8 {
					scal(u, 1/nb)
					if r := residual(op, au, u, vals[i], res); r <= 0.5*vals[i] {
						pairs = append(pairs, ritzPair{val: vals[i], resid: r, vec: u})
						ritzVecs = append(ritzVecs, u)
						convergedAt[key] = true
						newConverged = true
					} else {
						spuriousAt[key] = true
					}
				}
			}
			if spuriousAt[key] {
				// Certified junk: it neither blocks termination nor gets
				// kept.
				continue
			}
			if vals[i] >= opts.Cutoff && !conv {
				allAboveConverged = false
			}
			if !conv && vals[i]+bound >= opts.Cutoff {
				anyUnconvergedCouldPass = true
			}
		}
		if newConverged {
			stableFor = 0
		}
		if allAboveConverged && !anyUnconvergedCouldPass {
			stableFor += checkEvery
			if stableFor >= lasoMargin {
				return finish(op, w, alpha, beta[:len(beta)-1], opts, pairs, spuriousAt, res)
			}
		} else {
			stableFor = 0
		}
	}
	if res.Iterations >= n {
		return exhausted()
	}
	return nil, fmt.Errorf("%w after %d iterations (cutoff %g)", ErrNoConvergence, res.Iterations, opts.Cutoff)
}

// keyOf buckets a Ritz value so repeated convergence detections of the
// same eigenvalue (within tolerance) are not double counted, while true
// multiple eigenvalues emerging later via deflation get fresh slots once
// the earlier copy's vector deflates them out of T.
func keyOf(v, scale float64) int {
	return int(math.Round(v / (1e-9 * scale)))
}

// withDefaults fills the zero-value options for an operator of
// dimension n: MaxIter n (also capping a larger request), ConvTol 1e-8
// and Seed 1.
func (o Options) withDefaults(n int) Options {
	if o.MaxIter <= 0 || o.MaxIter > n {
		o.MaxIter = n
	}
	if o.ConvTol <= 0 {
		o.ConvTol = 1e-8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// finish assembles the final result from the pairs the loop certified
// and the final tridiagonal eigensystem. A loop pair whose residual is
// within residTol is returned as it is: the operator is not applied to
// it again. The final Ritz values above the cutoff, descending, with
// their vectors U = W Z, then go to certify, which drops the ghosts of
// the kept vectors before any operator application. A value the loop
// already certified spurious (spuriousAt, bucketed by keyOf) is skipped
// unless a kept pair's value falls in its bucket or a neighbouring one
// (equal values can straddle a bucket edge), because a late copy of a
// multiple eigenvalue can surface in a bucket the loop marked spurious
// while the copy was still forming. So in practice only a late copy, or
// a loop pair that missed residTol, reaches the operator here.
func finish(op Operator, w [][]float64, alpha, betaSub []float64, opts Options, pairs []ritzPair, spuriousAt map[int]bool, res *Result) (*Result, error) {
	vals, z, err := dense.TridiagEig(alpha, betaSub)
	if err != nil {
		return nil, err
	}
	scale := tScale(alpha, betaSub)
	residTol := math.Sqrt(opts.ConvTol) * scale
	var kept []ritzPair
	for _, p := range pairs {
		if p.resid <= residTol {
			kept = append(kept, p)
		}
	}
	keptAt := make(map[int]bool, 3*len(kept))
	for _, p := range kept {
		key := keyOf(p.val, scale)
		keptAt[key-1], keptAt[key], keptAt[key+1] = true, true, true
	}
	var candVals []float64
	var candCols []int
	for i := len(vals) - 1; i >= 0; i-- { // descending
		if key := keyOf(vals[i], scale); vals[i] >= opts.Cutoff && (keptAt[key] || !spuriousAt[key]) {
			candVals = append(candVals, vals[i])
			candCols = append(candCols, i)
		}
	}
	kept = certify(op, kept, candVals, func(c int) []float64 { return combine(w, z, candCols[c]) }, residTol, res)
	setResult(res, op.Dim(), kept, "LASO Ritz basis")
	if pv := len(w) + len(kept) + 3; pv > res.PeakVectors {
		res.PeakVectors = pv
	}
	return res, nil
}

// certify is the Ritz certification both solvers end with. Candidate i
// (value vals[i], vector vec(i), taken in order) is orthonormalized
// against the vectors already kept, starting from kept, and dropped as
// a ghost — a spurious duplicate whose direction is already captured —
// when little of it is left. It is then kept only if its residual
// ‖Au − θu‖ is within residTol and, for θ > 0, within 0.5·θ: spurious
// values from orthogonality loss sit far from the true spectrum and
// show residuals of order θ itself, while genuine converged pairs
// resolve much more finely. certify returns kept with the new pairs
// appended.
func certify(op Operator, kept []ritzPair, vals []float64, vec func(i int) []float64, residTol float64, res *Result) []ritzPair {
	au := make([]float64, op.Dim())
	basis := make([][]float64, len(kept), len(kept)+len(vals))
	for i, p := range kept {
		basis[i] = p.vec
	}
	for i, val := range vals {
		u := vec(i)
		orthAgainst(u, basis)
		nb := norm2(u)
		if nb < 1e-6 {
			continue
		}
		scal(u, 1/nb)
		r := residual(op, au, u, val, res)
		if r > residTol || (val > 0 && r > 0.5*val) {
			continue
		}
		basis = append(basis, u)
		kept = append(kept, ritzPair{val: val, resid: r, vec: u})
	}
	return kept
}

// residual applies op to the unit vector u (au is a work buffer) and returns
// ‖Au − θu‖, counting the application in res.
func residual(op Operator, au, u []float64, theta float64, res *Result) float64 {
	op.Apply(au, u)
	res.MatVecs++
	r2 := 0.0
	for q := range au {
		d := au[q] - theta*u[q]
		r2 += d * d
	}
	return math.Sqrt(r2)
}

// setResult stores pairs in res as Values, descending, and the matching
// columns of the n-row Vectors (name labels the basis in the
// orthonormality check).
func setResult(res *Result, n int, pairs []ritzPair, name string) {
	sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].val > pairs[b].val })
	var vals []float64
	vecs := dense.New(n, len(pairs))
	for j, p := range pairs {
		vals = append(vals, p.val)
		for i, v := range p.vec {
			vecs.Set(i, j, v)
		}
	}
	res.Values = vals
	res.Vectors = vecs
	if check.Enabled {
		check.Orthonormal(name, res.Vectors, check.OrthTol)
	}
}

// combine forms W z_col, the Ritz vector for T-eigenvector column col.
func combine(w [][]float64, z *dense.Mat, col int) []float64 {
	n := len(w[0])
	u := make([]float64, n)
	for j, wj := range w {
		c := z.At(j, col)
		if c == 0 {
			continue
		}
		axpy(u, c, wj)
	}
	return u
}

func orthAgainst(v []float64, basis [][]float64) {
	for pass := 0; pass < 2; pass++ {
		for _, b := range basis {
			axpy(v, -dot(b, v), b)
		}
	}
}

func tScale(alpha, beta []float64) float64 {
	s := 1e-300
	for i, a := range alpha {
		t := math.Abs(a)
		if i < len(beta) {
			t += math.Abs(beta[i])
		}
		if i > 0 {
			t += math.Abs(beta[i-1])
		}
		if t > s {
			s = t
		}
	}
	return s
}

func randUnit(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	scal(v, 1/norm2(v))
	return v
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func axpy(y []float64, a float64, x []float64) {
	for i := range y {
		y[i] += a * x[i]
	}
}

func scal(x []float64, a float64) {
	for i := range x {
		x[i] *= a
	}
}

func norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
