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

// tailIters is how many steps both variants continue after the stopping
// criterion is met, so late copies of multiple eigenvalues can emerge
// through deflation.
const tailIters = 12

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
	maxIter := opts.MaxIter
	if maxIter <= 0 || maxIter > n {
		maxIter = n
	}
	convTol := opts.ConvTol
	if convTol <= 0 {
		convTol = 1e-8
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	// Lanczos vector history (columns). Needed to form Ritz vectors; the
	// low-memory two-pass variant lives in twopass.go.
	w := make([][]float64, 0, 32)
	var alpha, beta []float64

	cur := randUnit(rng, n)
	var prev []float64
	betaPrev := 0.0
	av := make([]float64, n)

	res := &Result{}
	// Converged Ritz vectors (LASO's selective orthogonalization targets).
	var ritzVecs [][]float64
	var ritzVals []float64
	convergedAt := make(map[int]bool) // registered genuine Ritz values (bucketed)
	spuriousAt := make(map[int]bool)  // certified-spurious Ritz values (bucketed)
	au := make([]float64, n)

	stableFor := 0

	for j := 0; j < maxIter; j++ {
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
				// Whole space exhausted; in Selective/None mode redo with
				// full orthogonalization (see the exhaustion comment at
				// the end of the iteration loop).
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
				return finish(op, w, alpha, beta[:len(beta)-1], opts.Cutoff, convTol, res)
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
		if (j+1)%checkEvery != 0 && j+1 < maxIter {
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
			conv := bound <= convTol*scaleT
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
					op.Apply(au, u)
					res.MatVecs++
					r2 := 0.0
					for q := range au {
						d := au[q] - vals[i]*u[q]
						r2 += d * d
					}
					if math.Sqrt(r2) <= 0.5*vals[i] {
						ritzVecs = append(ritzVecs, u)
						ritzVals = append(ritzVals, vals[i])
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
			if stableFor >= tailIters {
				return finish(op, w, alpha, beta[:len(beta)-1], opts.Cutoff, convTol, res)
			}
		} else {
			stableFor = 0
		}
	}
	if res.Iterations >= n {
		// The Krylov space is the whole space. With full
		// reorthogonalization T's eigensystem is (backward stably) the
		// operator's; with selective orthogonalization the small end of a
		// widely spread spectrum may be corrupted, so redo the run in Full
		// mode — exhaustion implies n is commensurate with the number of
		// wanted eigenpairs, where the O(n²) vectors are affordable.
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
		return finish(op, w, alpha, beta[:len(beta)-1], opts.Cutoff, convTol, res)
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

// finish assembles the final result from the tridiagonal eigensystem:
// Ritz values above the cutoff, Ritz vectors U = W Z, orthonormalized.
// Candidates whose assembled vector is a ghost (direction already kept) or
// whose residual ‖A u − θ u‖ is far from converged are dropped, which
// filters the spurious duplicates finite-precision Lanczos produces.
func finish(op Operator, w [][]float64, alpha, betaSub []float64, cutoff, convTol float64, res *Result) (*Result, error) {
	vals, z, err := dense.TridiagEig(alpha, betaSub)
	if err != nil {
		return nil, err
	}
	n := op.Dim()
	k := len(vals)
	scaleT := tScale(alpha, betaSub)
	residTol := math.Sqrt(convTol) * scaleT
	type pair struct {
		val float64
		col int
	}
	var keep []pair
	for i := k - 1; i >= 0; i-- { // descending
		if vals[i] >= cutoff {
			keep = append(keep, pair{vals[i], i})
		}
	}
	var outVals []float64
	var cols [][]float64
	au := make([]float64, n)
	for _, p := range keep {
		u := combine(w, z, p.col)
		// Orthonormalize against the already kept vectors; drop ghosts
		// (spurious duplicates) whose direction is already captured.
		orthAgainst(u, cols)
		nb := norm2(u)
		if nb < 1e-6 {
			continue
		}
		scal(u, 1/nb)
		op.Apply(au, u)
		res.MatVecs++
		r2 := 0.0
		for i := range au {
			d := au[i] - p.val*u[i]
			r2 += d * d
		}
		r := math.Sqrt(r2)
		if r > residTol {
			continue
		}
		// Spurious values from orthogonality loss sit far from the true
		// spectrum and show residuals of order θ itself; genuine
		// converged pairs resolve much more finely.
		if p.val > 0 && r > 0.5*p.val {
			continue
		}
		cols = append(cols, u)
		outVals = append(outVals, p.val)
	}
	vecs := dense.New(n, len(cols))
	for j, c := range cols {
		for i := 0; i < n; i++ {
			vecs.Set(i, j, c[i])
		}
	}
	res.Values = outVals
	res.Vectors = vecs
	if pv := len(w) + len(cols) + 3; pv > res.PeakVectors {
		res.PeakVectors = pv
	}
	if check.Enabled {
		check.Orthonormal("LASO Ritz basis", res.Vectors, check.OrthTol)
	}
	return res, nil
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
