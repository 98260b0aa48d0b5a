package core

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/dense"
)

// This file is the brute-force accuracy oracle of the reduction: the
// exact multiport admittance evaluated through a dense complex LU of the
// full internal block, sharing no code with the sparse evaluation path
// (no ordering, no symbolic analysis, no sparse factorization kernels).
// At O(n³) per frequency it is only usable on small systems — which is
// exactly the point: it is the independent reference the single-point,
// multi-point and clustered multi-point reductions are all measured
// against in the oracle test suite and the experiments tables.

// OracleY evaluates Y(s) = A + sB − (Q+sR)ᵀ(D+sE)⁻¹(Q+sR) by dense
// complex LU, entirely independent of the sparse admittance path.
func OracleY(sys *System, sv complex128) (*dense.CMat, error) {
	m, n := sys.M, sys.N
	y := dense.NewC(m, m)
	for i := 0; i < m; i++ {
		cols, vals := sys.A.Row(i)
		for p, j := range cols {
			y.Add(i, j, complex(vals[p], 0))
		}
		cols, vals = sys.B.Row(i)
		for p, j := range cols {
			y.Add(i, j, sv*complex(vals[p], 0))
		}
	}
	if n == 0 {
		return y, nil
	}
	pencil := dense.NewC(n, n)
	for i := 0; i < n; i++ {
		cols, vals := sys.D.Row(i)
		for p, j := range cols {
			pencil.Add(i, j, complex(vals[p], 0))
		}
		cols, vals = sys.E.Row(i)
		for p, j := range cols {
			pencil.Add(i, j, sv*complex(vals[p], 0))
		}
	}
	f, err := dense.FactorCLU(pencil)
	if err != nil {
		return nil, fmt.Errorf("core: oracle pencil D+sE singular at s=%v: %w", sv, err)
	}
	qT := sys.Q.Transpose() // m×n: row j = column j of Q
	rT := sys.R.Transpose()
	b := make([]complex128, n)
	for j := 0; j < m; j++ {
		for i := range b {
			b[i] = 0
		}
		cols, vals := qT.Row(j)
		for p, i := range cols {
			b[i] += complex(vals[p], 0)
		}
		cols, vals = rT.Row(j)
		for p, i := range cols {
			b[i] += sv * complex(vals[p], 0)
		}
		f.Solve(b)
		for i := 0; i < m; i++ {
			var acc complex128
			cols, vals := qT.Row(i)
			for p, k := range cols {
				acc += complex(vals[p], 0) * b[k]
			}
			cols, vals = rT.Row(i)
			for p, k := range cols {
				acc += sv * complex(vals[p], 0) * b[k]
			}
			y.Add(i, j, -acc)
		}
	}
	return y, nil
}

// cFrob returns the Frobenius norm of a complex matrix.
func cFrob(a *dense.CMat) float64 {
	s := 0.0
	for i := 0; i < a.R; i++ {
		for j := 0; j < a.C; j++ {
			v := cmplx.Abs(a.At(i, j))
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// OracleMaxRelErrs sweeps freqs once, factoring the dense pencil a
// single time per frequency, and returns the worst relative error of
// each model — the cheap way to measure single-point, multi-point and
// clustered reductions against one oracle pass.
func OracleMaxRelErrs(sys *System, models []*ReducedModel, freqs []float64) ([]float64, error) {
	worst := make([]float64, len(models))
	for _, f := range freqs {
		sv := complex(0, 2*math.Pi*f)
		exact, err := OracleY(sys, sv)
		if err != nil {
			return nil, err
		}
		denom := cFrob(exact)
		for mi, model := range models {
			got := model.Y(sv)
			d := 0.0
			for i := 0; i < exact.R; i++ {
				for j := 0; j < exact.C; j++ {
					v := cmplx.Abs(got.At(i, j) - exact.At(i, j))
					d += v * v
				}
			}
			e := math.Sqrt(d)
			if denom > 0 {
				e /= denom
			}
			if e > worst[mi] {
				worst[mi] = e
			}
		}
	}
	return worst, nil
}

// OracleFreqs returns count log-spaced frequencies from fmax/10^decades
// up to fmax inclusive — the standard sweep the oracle suite measures
// over.
func OracleFreqs(fmax float64, decades float64, count int) []float64 {
	if count < 2 {
		return []float64{fmax}
	}
	out := make([]float64, count)
	lo := math.Log10(fmax) - decades
	step := decades / float64(count-1)
	for i := range out {
		out[i] = math.Pow(10, lo+float64(i)*step)
	}
	out[count-1] = fmax
	return out
}
