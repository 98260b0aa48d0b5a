// Package pade implements the Padé-type congruence reduction the paper
// compares against (Kerns/Wemple/Yang ICCAD'95, the symmetric analogue of
// MPVL): after PACT's first transform, a block Krylov basis
// span{R′, E′R′, …, E′^{q−1}R′} is built with a fully orthogonalized
// block Lanczos process and the internal block is projected onto it.
// The projection matches moments of Y(s) rather than preserving exact
// poles, and — the crux of Section 4 of the paper — it must hold the
// whole n×(m·q) basis plus the dense n×m block R′ in memory and
// orthogonalize against all of it, which is why its memory and vector-op
// counts scale as O(m²)/O(m³) where LASO needs O(m)/O(m²).
package pade

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dense"
)

// Stats reports the cost of a Padé-congruence reduction in the units of
// the paper's Section 4.
type Stats struct {
	// MatVecs counts E′ applications.
	MatVecs int
	// PeakVectors is the maximum number of length-n vectors simultaneously
	// live: the R′ block plus the accumulated Krylov basis.
	PeakVectors int
	// BasisSize is the final Krylov basis dimension (≈ m·q).
	BasisSize int
	// Blocks is the number of block Lanczos steps performed.
	Blocks int
}

// Reduce performs the q-block Padé congruence reduction of sys. The
// options select the ordering and Transform-1 behaviour; FMax/Tol are not
// used for pole selection (the method keeps the whole projected pencil)
// but FMax must still be positive for option validation symmetry with
// core.Reduce.
func Reduce(sys *core.System, q int, opts core.Options) (*core.ReducedModel, *Stats, error) {
	if q < 1 {
		return nil, nil, fmt.Errorf("pade: need at least one block, got %d", q)
	}
	t, _, err := core.Transform1(sys, opts)
	if err != nil {
		return nil, nil, err
	}
	m, n := t.M, t.N
	stats := &Stats{}
	if n == 0 {
		return &core.ReducedModel{M: m, A: t.APrime, B: t.BPrime, R: dense.New(0, m)}, stats, nil
	}
	op := t.EOp()

	// Form R′ in full — the dense n×m block the Padé methods require.
	// RPrimeBlock solves the m port columns in parallel.
	rPrime := t.RPrimeBlock()
	stats.PeakVectors = m

	// Block Lanczos with full orthogonalization — the O(m²·q) vector
	// products the paper counts against the Padé-based methods.
	// Deflation is relative to each candidate's pre-orthogonalization
	// norm: Krylov blocks of E′ shrink by the pole time constants, so an
	// absolute threshold would deflate genuinely new directions.
	const deflTol = 1e-10
	var basis [][]float64
	block := make([][]float64, 0, m)
	addCandidate := func(v []float64, dst *[][]float64) {
		before := norm2(v)
		if before == 0 {
			return
		}
		orth(v, basis)
		orth(v, *dst)
		orth(v, basis)
		orth(v, *dst)
		if after := norm2(v); after > deflTol*before {
			scal(v, 1/after)
			*dst = append(*dst, v)
		}
	}
	for _, col := range rPrime {
		v := append([]float64(nil), col...)
		addCandidate(v, &block)
	}
	for b := 0; b < q && len(block) > 0; b++ {
		basis = append(basis, block...)
		stats.Blocks++
		if pv := m + len(basis) + len(block); pv > stats.PeakVectors {
			stats.PeakVectors = pv
		}
		if b == q-1 || len(basis) >= n {
			break
		}
		var next [][]float64
		for _, v := range block {
			w := make([]float64, n)
			op.Apply(w, v)
			stats.MatVecs++
			addCandidate(w, &next)
		}
		block = next
	}
	kk := len(basis)
	stats.BasisSize = kk

	// Project: Ẽ = Vᵀ E′ V and R̃ = Vᵀ R′.
	eTilde := dense.New(kk, kk)
	w := make([]float64, n)
	for j := 0; j < kk; j++ {
		op.Apply(w, basis[j])
		stats.MatVecs++
		for i := 0; i < kk; i++ {
			eTilde.Set(i, j, dot(basis[i], w))
		}
	}
	eTilde.Symmetrize()
	rTilde := dense.New(kk, m)
	for j := 0; j < m; j++ {
		for i := 0; i < kk; i++ {
			rTilde.Set(i, j, dot(basis[i], rPrime[j]))
		}
	}

	// Diagonalize the projected pencil into pole/residue form compatible
	// with core.ReducedModel.
	vals, vecs, err := dense.SymEig(eTilde.Clone())
	if err != nil {
		return nil, nil, fmt.Errorf("pade: projected eigensolve: %w", err)
	}
	lamFloor := 0.0
	if kk > 0 {
		lamFloor = 1e-14 * math.Max(vals[kk-1], 0)
	}
	var lambda []float64
	var keep []int
	for i := kk - 1; i >= 0; i-- { // descending
		if vals[i] > lamFloor {
			lambda = append(lambda, vals[i])
			keep = append(keep, i)
		}
	}
	rk := dense.New(len(keep), m)
	for c, idx := range keep {
		for j := 0; j < m; j++ {
			s := 0.0
			for i := 0; i < kk; i++ {
				s += vecs.At(i, idx) * rTilde.At(i, j)
			}
			rk.Set(c, j, s)
		}
	}
	model := &core.ReducedModel{M: m, Lambda: lambda, A: t.APrime, B: t.BPrime, R: rk}
	return model, stats, nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func scal(x []float64, a float64) {
	for i := range x {
		x[i] *= a
	}
}

func orth(v []float64, basis [][]float64) {
	for _, b := range basis {
		c := dot(b, v)
		if c == 0 {
			continue
		}
		for i := range v {
			v[i] -= c * b[i]
		}
	}
}
