package lanczos

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dense"
	"repro/internal/resilience/inject"
)

// TwoPass finds the eigenvalues of op above opts.Cutoff with the
// memory-minimal strategy the paper's complexity analysis assumes: a
// first pass runs the plain Lanczos recursion keeping only the scalar
// recursion coefficients (two Lanczos vectors of length n in working
// memory — the O(m) memory claim of Section 4), and a second pass replays
// the identical recursion to accumulate the selected Ritz vectors.
//
// Without reorthogonalization, converged eigenvalues reappear as
// duplicate ("ghost") Ritz values; TwoPass clusters converged Ritz values
// and keeps one representative per cluster, in the spirit of the
// Cullum–Willoughby post-processing the paper cites as reference [12].
//
// The result's PeakVectors field reports how many length-n vectors were
// simultaneously live, for the memory benches.
func TwoPass(op Operator, opts Options) (*Result, error) {
	return TwoPassCtx(context.Background(), op, opts)
}

// TwoPassCtx is TwoPass with cooperative cancellation, checked once per
// Lanczos step in both passes.
func TwoPassCtx(ctx context.Context, op Operator, opts Options) (*Result, error) {
	n := op.Dim()
	if n == 0 {
		return &Result{Vectors: dense.New(0, 0)}, nil
	}
	opts = opts.withDefaults(n)

	res := &Result{PeakVectors: 3}

	// Pass 1: recursion scalars only.
	var alpha, beta []float64
	cur := randUnit(rand.New(rand.NewSource(opts.Seed)), n)
	prev := make([]float64, n)
	havePrev := false
	betaPrev := 0.0
	av := make([]float64, n)
	stableFor := 0
	var keptVals []float64
	iters := 0
	for j := 0; j < opts.MaxIter; j++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("lanczos: two-pass canceled at iteration %d: %w", j, err)
		}
		if inject.Enabled && inject.ShouldFail(inject.LanczosIter, j) {
			return nil, fmt.Errorf("%w: injected stagnation at two-pass iteration %d (cutoff %g)", ErrNoConvergence, j, opts.Cutoff)
		}
		op.Apply(av, cur)
		res.MatVecs++
		a := dot(cur, av)
		alpha = append(alpha, a)
		for i := range av {
			av[i] -= a * cur[i]
			if havePrev {
				av[i] -= betaPrev * prev[i]
			}
		}
		b := norm2(av)
		iters = j + 1
		scaleT := tScale(alpha, beta)
		if b <= 1e3*machEps*scaleT {
			// Invariant subspace: the plain recursion cannot restart
			// deterministically without storing history, so stop here; the
			// Krylov space built so far is exact for this starting vector.
			beta = append(beta, 0)
			break
		}
		scal(av, 1/b)
		prev, cur, av = cur, av, prev
		havePrev = true
		betaPrev = b
		beta = append(beta, b)

		checkEvery := 1 + j/20
		if (j+1)%checkEvery != 0 && j+1 < opts.MaxIter {
			continue
		}
		vals, z, err := dense.TridiagEig(alpha, beta[:len(beta)-1])
		if err != nil {
			return nil, err
		}
		k := len(vals)
		clusterTol := 1e-7 * scaleT
		var conv []float64
		blocked := false
		for i := 0; i < k; i++ {
			bound := b * math.Abs(z.At(k-1, i))
			if bound <= opts.ConvTol*scaleT {
				if vals[i] >= opts.Cutoff {
					conv = append(conv, vals[i])
				}
				continue
			}
			if vals[i]+bound < opts.Cutoff {
				continue
			}
			// Unconverged candidate above cutoff: ignore if it is a ghost
			// of an already converged value.
			ghost := false
			for _, c := range conv {
				if math.Abs(vals[i]-c) <= clusterTol {
					ghost = true
					break
				}
			}
			// conv is built in ascending order; also compare against
			// converged values later in the list by a full scan below.
			if !ghost {
				for ii := i + 1; ii < k; ii++ {
					bii := b * math.Abs(z.At(k-1, ii))
					if bii <= opts.ConvTol*scaleT && math.Abs(vals[i]-vals[ii]) <= clusterTol {
						ghost = true
						break
					}
				}
			}
			if !ghost {
				blocked = true
			}
		}
		clustered := clusterDescending(conv, clusterTol)
		if !blocked && sameValues(clustered, keptVals, clusterTol) {
			stableFor += checkEvery
			if stableFor >= tailIters {
				keptVals = clustered
				break
			}
		} else {
			stableFor = 0
		}
		keptVals = clustered
	}
	res.Iterations = iters

	// Final eigensystem of T and representative column per kept value.
	vals, z, err := dense.TridiagEig(alpha, beta[:len(beta)-1])
	if err != nil {
		return nil, err
	}
	k := len(vals)
	scaleT := tScale(alpha, beta)
	clusterTol := 1e-7 * scaleT
	// Recompute kept values from the final T (handles the MaxIter exit).
	var conv []float64
	lastBeta := 0.0
	if len(beta) > 0 {
		lastBeta = beta[len(beta)-1]
	}
	for i := 0; i < k; i++ {
		bound := lastBeta * math.Abs(z.At(k-1, i))
		if vals[i] >= opts.Cutoff && bound <= opts.ConvTol*scaleT {
			conv = append(conv, vals[i])
		}
	}
	keptVals = clusterDescending(conv, clusterTol)
	cols := make([]int, 0, len(keptVals))
	for _, v := range keptVals {
		best, bestBound := -1, math.Inf(1)
		for i := 0; i < k; i++ {
			if math.Abs(vals[i]-v) <= clusterTol {
				bound := lastBeta * math.Abs(z.At(k-1, i))
				if bound < bestBound {
					best, bestBound = i, bound
				}
			}
		}
		cols = append(cols, best)
	}

	// Pass 2: replay the recursion, accumulating U(:,j) += z[step][col_j] * w_step.
	u := dense.New(n, len(cols))
	res.PeakVectors = 3 + len(cols)
	cur = randUnit(rand.New(rand.NewSource(opts.Seed)), n)
	havePrev = false
	betaPrev = 0
	for step := 0; step < len(alpha); step++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("lanczos: two-pass replay canceled at step %d: %w", step, err)
		}
		for jc, col := range cols {
			c := z.At(step, col)
			if c != 0 {
				for i := 0; i < n; i++ {
					u.Add(i, jc, c*cur[i])
				}
			}
		}
		if step == len(alpha)-1 {
			break
		}
		op.Apply(av, cur)
		res.MatVecs++
		a := alpha[step]
		for i := range av {
			av[i] -= a * cur[i]
			if havePrev {
				av[i] -= betaPrev * prev[i]
			}
		}
		b := beta[step]
		if b == 0 {
			break
		}
		scal(av, 1/b)
		prev, cur, av = cur, av, prev
		havePrev = true
		betaPrev = b
	}
	// Certify the representatives: ghost directions collapse and
	// spurious candidates fail the explicit residual check — the
	// post-processing role the Cullum–Willoughby test plays in the
	// paper's reference [12].
	residTol := math.Sqrt(opts.ConvTol) * scaleT
	kept := certify(op, nil, keptVals, func(j int) []float64 {
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			v[i] = u.At(i, j)
		}
		return v
	}, residTol, res)
	setResult(res, n, kept, "two-pass Ritz basis")
	if len(kept) == 0 && len(keptVals) > 0 {
		return nil, fmt.Errorf("%w: two-pass vector accumulation degenerated", ErrNoConvergence)
	}
	return res, nil
}

// clusterDescending sorts values descending and merges values closer than
// tol into a single representative (their mean).
func clusterDescending(vals []float64, tol float64) []float64 {
	if len(vals) == 0 {
		return nil
	}
	sorted := append([]float64(nil), vals...)
	// insertion sort descending; lists are tiny
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] > sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var out []float64
	i := 0
	for i < len(sorted) {
		j := i + 1
		sum := sorted[i]
		for j < len(sorted) && sorted[i]-sorted[j] <= tol {
			sum += sorted[j]
			j++
		}
		out = append(out, sum/float64(j-i))
		i = j
	}
	return out
}

func sameValues(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
