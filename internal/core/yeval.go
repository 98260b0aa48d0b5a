package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/chol"
	"repro/internal/dense"
	"repro/internal/order"
	"repro/internal/par"
	"repro/internal/resilience"
	"repro/internal/sparse"
)

// pencil is the complex pencil D + sE in one fixed ordering: the
// union pattern of D and E, its factorization analysis (run once, then
// shared by the numeric factorization at every s, so per-point work is
// purely numeric), and the alignment of the D and E values with the
// union storage. An analyzed pencil is immutable and safe to share.
type pencil struct {
	d, e       *sparse.CSR // D and E in the pencil's ordering
	perm       []int       // the ordering: new index -> old index
	an         *chol.Analysis
	dPos, ePos []int // position of each union entry in d, e (-1 if absent)
}

// newPencil orders the union pattern of d and e by method and analyzes
// it; the permuted union order.Analyze returns is the pattern the
// factorization indexes (the union's values are |d|+|e|, so it holds
// every position where the permuted d or e is nonzero, and only those).
// order.Natural keeps d and e as they stand, so the pencil lives in
// their frame with no permutation copy of them.
func newPencil(d, e *sparse.CSR, method order.Method) (*pencil, error) {
	sym, pat := order.Analyze(sparse.PatternUnion(d, e), method)
	if method != order.Natural {
		d, e = d.PermuteSym(sym.Perm), e.PermuteSym(sym.Perm)
	}
	an, err := chol.Analyze(pat, sym)
	if err != nil {
		return nil, err
	}
	dPos, ePos := alignUnionPositions(pat, d, e)
	return &pencil{d: d, e: e, perm: sym.Perm, an: an, dPos: dPos, ePos: ePos}, nil
}

// factorize runs the complex LDLᵀ factorization of D + sv·E through an
// optional workspace (see chol.Analysis.FactorizeComplex).
func (pc *pencil) factorize(sv complex128, ws *chol.FactorWorkspace) (*chol.ComplexFactor, error) {
	return pc.an.FactorizeComplex(func(p int) complex128 {
		var v complex128
		if q := pc.dPos[p]; q >= 0 {
			v += complex(pc.d.Val[q], 0)
		}
		if q := pc.ePos[p]; q >= 0 {
			v += sv * complex(pc.e.Val[q], 0)
		}
		return v
	}, ws)
}

// alignUnionPositions maps every stored position of the union pattern to
// the corresponding stored position in a and b (-1 where the operand has
// no entry).
func alignUnionPositions(pat, a, b *sparse.CSR) (aPos, bPos []int) {
	aPos = make([]int, pat.NNZ())
	bPos = make([]int, pat.NNZ())
	for p := range aPos {
		aPos[p] = -1
		bPos[p] = -1
	}
	for i := 0; i < pat.Rows; i++ {
		pa := a.RowPtr[i]
		pb := b.RowPtr[i]
		for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
			j := pat.Col[p]
			for pa < a.RowPtr[i+1] && a.Col[pa] < j {
				pa++
			}
			if pa < a.RowPtr[i+1] && a.Col[pa] == j {
				aPos[p] = pa
			}
			for pb < b.RowPtr[i+1] && b.Col[pb] < j {
				pb++
			}
			if pb < b.RowPtr[i+1] && b.Col[pb] == j {
				bPos[p] = pb
			}
		}
	}
	return aPos, bPos
}

// initYEval prepares the cached state for exact multiport admittance
// evaluation: the pencil D + sE under a fill-reducing ordering of its
// union pattern (valid for every s) and the connection blocks in that
// ordering. It runs once; subsequent Y evaluations only read the cache,
// so they may run concurrently.
func (s *System) initYEval() error {
	s.yOnce.Do(func() {
		s.yPen, s.yErr = newPencil(s.D, s.E, order.MinimumDegree)
		if s.yErr == nil {
			s.yQP = s.Q.PermuteRows(s.yPen.perm).Transpose() // m×n: row i = column i of permuted Q
			s.yRP = s.R.PermuteRows(s.yPen.perm).Transpose()
		}
	})
	return s.yErr
}

// yPortChunk is the block size of the Schur-complement port solves: the
// multi-RHS batch bounds the extra memory at yPortChunk·n complex
// entries per evaluation.
const yPortChunk = 8

// yWorkspace is the reusable per-worker state of a frequency sweep: the
// chol factorization workspace (packed panels, dense scratch, DAG run
// state, solve buffers) and the port-block solve buffer. At 10⁶ nodes
// those total hundreds of megabytes per evaluation, so YSweep threads
// one yWorkspace through each worker's serial sequence of frequency
// points and the steady state of a sweep allocates only the m×m result
// matrices. Not safe for concurrent use; Y without a workspace remains
// fully concurrent.
type yWorkspace struct {
	fws   *chol.FactorWorkspace
	block []complex128
}

// Y evaluates the exact multiport admittance
//
//	Y(s) = A + sB − (Q+sR)ᵀ (D+sE)⁻¹ (Q+sR)
//
// at the complex frequency sv by a sparse complex LDLᵀ factorization of
// D + sE followed by one solve per port. This is the reference the
// reduced models are verified against; its cost per frequency point is
// what Tables 2–3 of the paper compare full-network AC analysis with.
func (s *System) Y(sv complex128) (*dense.CMat, error) {
	return s.yEval(sv, nil)
}

// yEval is Y against an optional sweep workspace (nil allocates fresh
// buffers, preserving Y's concurrency).
func (s *System) yEval(sv complex128, ws *yWorkspace) (*dense.CMat, error) {
	if err := s.initYEval(); err != nil {
		return nil, err
	}
	// The analysis is shared across every frequency point, so each point
	// pays only the numeric factorization — and with a sweep workspace
	// (supernodal kernel), not even an allocation for it.
	var fws *chol.FactorWorkspace
	if ws != nil {
		if ws.fws == nil {
			ws.fws = s.yPen.an.NewWorkspace()
		}
		fws = ws.fws
	}
	f, err := s.yPen.factorize(sv, fws)
	if err != nil {
		return nil, fmt.Errorf("core: factorization of D+sE at s=%v: %w", sv, err)
	}
	m := s.M
	y := dense.NewC(m, m)
	// Port block A + sB.
	for i := 0; i < m; i++ {
		cols, vals := s.A.Row(i)
		for p, j := range cols {
			y.Add(i, j, complex(vals[p], 0))
		}
		cols, vals = s.B.Row(i)
		for p, j := range cols {
			y.Add(i, j, sv*complex(vals[p], 0))
		}
	}
	// Schur complement: the port columns are independent solves against
	// the one factor, batched into fixed-size blocks so each factor panel
	// streams through the cache once per block rather than once per port
	// (the multi-RHS solve runs each column's arithmetic exactly as a
	// single solve would, so the batching changes no bits).
	var block []complex128
	if ws != nil {
		if ws.block == nil {
			ws.block = make([]complex128, yPortChunk*s.N)
		}
		block = ws.block
	} else {
		block = make([]complex128, yPortChunk*s.N)
	}
	for j0 := 0; j0 < m; j0 += yPortChunk {
		j1 := j0 + yPortChunk
		if j1 > m {
			j1 = m
		}
		nb := j1 - j0
		x := block[:nb*s.N]
		for i := range x {
			x[i] = 0
		}
		for j := j0; j < j1; j++ {
			col := x[(j-j0)*s.N : (j-j0+1)*s.N]
			cols, vals := s.yQP.Row(j) // column j of permuted Q
			for p, i := range cols {
				col[i] += complex(vals[p], 0)
			}
			cols, vals = s.yRP.Row(j)
			for p, i := range cols {
				col[i] += sv * complex(vals[p], 0)
			}
		}
		if err := f.SolveMulti(x, nb); err != nil {
			return nil, fmt.Errorf("core: admittance solves for ports %d..%d at s=%v: %w", j0, j1-1, sv, err)
		}
		for j := j0; j < j1; j++ {
			col := x[(j-j0)*s.N : (j-j0+1)*s.N]
			for i := 0; i < m; i++ {
				var acc complex128
				cols, vals := s.yQP.Row(i)
				for p, k := range cols {
					acc += complex(vals[p], 0) * col[k]
				}
				cols, vals = s.yRP.Row(i)
				for p, k := range cols {
					acc += sv * complex(vals[p], 0) * col[k]
				}
				y.Add(i, j, -acc)
			}
		}
	}
	return y, nil
}

// TransimpedanceOf inverts the admittance matrix and returns Z[i][j].
func TransimpedanceOf(y *dense.CMat, i, j int) (complex128, error) {
	f, err := dense.FactorCLU(y.Clone())
	if err != nil {
		return 0, fmt.Errorf("core: admittance matrix singular: %w", err)
	}
	b := make([]complex128, y.R)
	b[j] = 1
	f.Solve(b)
	return b[i], nil
}

// YSweep evaluates the exact multiport admittance at every frequency of
// the sweep (Hz, evaluated at s = j2πf). The factorizations per
// frequency are independent, so the sweep fans out over the par pool —
// the dominant cost of full-network AC verification. Each result lands
// in its own index slot and errors are reported by lowest failing
// frequency index, so the outcome is identical at every GOMAXPROCS.
func (s *System) YSweep(freqs []float64) ([]*dense.CMat, error) {
	return s.YSweepCtx(context.Background(), freqs)
}

// YSweepCtx is YSweep with cooperative cancellation between frequency
// points: a canceled sweep returns a resilience.StageError for the
// admittance stage instead of partial results.
func (s *System) YSweepCtx(ctx context.Context, freqs []float64) ([]*dense.CMat, error) {
	if err := s.initYEval(); err != nil {
		return nil, err
	}
	out := make([]*dense.CMat, len(freqs))
	errs := make([]error, len(freqs))
	// One workspace per pool worker: each worker evaluates its frequency
	// points serially through its own workspace, so the per-point
	// factorization and solve storage is allocated once per worker for
	// the whole sweep instead of once per point. Result placement and
	// arithmetic are unchanged — the workspace only recycles buffers.
	wss := make([]*yWorkspace, par.Workers(len(freqs)))
	if err := par.ForWorkersCtx(ctx, len(freqs), func(w, k int) {
		if wss[w] == nil {
			wss[w] = &yWorkspace{}
		}
		out[k], errs[k] = s.yEval(complex(0, 2*math.Pi*freqs[k]), wss[w])
	}); err != nil {
		return nil, resilience.Canceled(resilience.StageYEval, ctx)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
