// Package prima implements PRIMA (Passive Reduced-order Interconnect
// Macromodeling Algorithm, Odabasioglu/Celik/Pileggi 1997) specialized to
// RC networks — the direct successor of the PACT line of work, included
// as a second congruence baseline. A block Arnoldi process builds an
// orthonormal basis of the Krylov space span{G⁻¹B, (G⁻¹C)G⁻¹B, …} on the
// full (ports + internal) matrices, and the conductance/susceptance
// matrices are congruence-projected onto it, preserving passivity while
// matching q block moments at s = 0.
//
// Differences from PACT worth measuring (see the baselines example):
// PRIMA carries the ports inside the projected state, so the reduced
// model has m·q states rather than PACT's "exact port blocks + kept
// poles" structure, and its accuracy is moment-based rather than
// pole-location-based.
package prima

import (
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/chol"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/order"
	"repro/internal/sparse"
)

// Model is a PRIMA-reduced multiport: Ỹ(s) = B̃ᵀ (G̃ + sC̃)⁻¹ B̃ with the
// projected matrices dense and small.
type Model struct {
	M    int
	Gr   *dense.Mat // q·m × q·m projected conductance
	Cr   *dense.Mat // projected susceptance
	Br   *dense.Mat // q·m × m projected input incidence
	Dims int        // reduced state dimension
}

// Stats reports the reduction work.
type Stats struct {
	MatVecs     int // G solves + C products
	PeakVectors int // full-length vectors simultaneously live
	BasisSize   int
	Blocks      int
}

// Reduce runs q block-Arnoldi steps on the full matrices of sys,
// expanding at the real frequency point s0 >= 0 (rad/s): the Krylov
// operator is (G + s0·C)⁻¹C. Use s0 = 0 when every node has a DC path to
// ground; networks whose conductance matrix is singular (e.g. a floating
// RC line, where only the port sources provide the DC reference) need
// s0 > 0, the standard PRIMA shifted expansion.
func Reduce(sys *core.System, q int, s0 float64, ordering order.Method) (*Model, *Stats, error) {
	if q < 1 {
		return nil, nil, fmt.Errorf("prima: need at least one block, got %d", q)
	}
	if s0 < 0 {
		return nil, nil, fmt.Errorf("prima: expansion point s0 must be non-negative, got %g", s0)
	}
	m := sys.M
	g, c := sys.Full()
	shifted := g
	if s0 > 0 {
		shifted = sparse.Add(1, g, s0, c)
	}
	nt := g.Rows
	sym, _ := order.Analyze(sparse.PatternUnion(g, c), ordering)
	ap := shifted.PermuteSym(sym.Perm) // Arnoldi operator matrix G + s0·C
	gp := g.PermuteSym(sym.Perm)       // original G for the projection
	cp := c.PermuteSym(sym.Perm)
	fact, err := chol.Factorize(ap, sym)
	if err != nil {
		return nil, nil, fmt.Errorf("prima: factorization of G + s0·C (try a positive s0 for networks without a DC path to ground): %w", err)
	}
	stats := &Stats{}

	// Input incidence in permuted space: unit injection at each port
	// (ports are indices 0..m-1 before permutation).
	bCols := make([][]float64, m)
	for j := 0; j < m; j++ {
		col := make([]float64, nt)
		col[sym.Inv[j]] = 1
		bCols[j] = col
	}

	// Block Arnoldi with full orthogonalization: V1 = orth(G⁻¹B),
	// V_{k+1} = orth(G⁻¹ C V_k ⊥ all previous). Deflation is decided
	// relative to the candidate's norm before orthogonalization —
	// successive Krylov blocks shrink geometrically (by roughly the RC
	// time constants), so an absolute threshold would deflate genuinely
	// new directions.
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
	for _, bc := range bCols {
		//lint:ignore defersmell each candidate is kept as a basis vector, so the clone is the algorithm's storage, not loop scratch
		v := append([]float64(nil), bc...)
		fact.Solve(v)
		stats.MatVecs++
		addCandidate(v, &block)
	}
	tmp := make([]float64, nt)
	for b := 0; b < q && len(block) > 0; b++ {
		basis = append(basis, block...)
		stats.Blocks++
		if pv := m + len(basis) + len(block); pv > stats.PeakVectors {
			stats.PeakVectors = pv
		}
		if b == q-1 || len(basis) >= nt {
			break
		}
		var next [][]float64
		for _, v := range block {
			cp.MulVec(tmp, v)
			//lint:ignore defersmell the clone survives the loop as a candidate basis vector; tmp is the reused scratch
			w := append([]float64(nil), tmp...)
			fact.Solve(w)
			stats.MatVecs++
			addCandidate(w, &next)
		}
		block = next
	}
	k := len(basis)
	stats.BasisSize = k

	// Congruence projection. VᵀGV and VᵀCV are symmetric by construction,
	// so compute each pair once from column j's product and mirror it with
	// SetSym instead of averaging afterwards.
	gr := dense.New(k, k)
	cr := dense.New(k, k)
	br := dense.New(k, m)
	for j := 0; j < k; j++ {
		gp.MulVec(tmp, basis[j])
		for i := 0; i <= j; i++ {
			gr.SetSym(i, j, dot(basis[i], tmp))
		}
		cp.MulVec(tmp, basis[j])
		for i := 0; i <= j; i++ {
			cr.SetSym(i, j, dot(basis[i], tmp))
		}
	}
	if check.Enabled {
		// The projection VᵀGV, VᵀCV is a congruence, so the reduced
		// matrices must stay non-negative definite — PRIMA's passivity
		// argument, checked here directly.
		check.NonNegDef("PRIMA projected conductance", gr, check.DefaultTol)
		check.NonNegDef("PRIMA projected susceptance", cr, check.DefaultTol)
	}
	for j := 0; j < m; j++ {
		for i := 0; i < k; i++ {
			br.Set(i, j, basis[i][sym.Inv[j]])
		}
	}
	return &Model{M: m, Gr: gr, Cr: cr, Br: br, Dims: k}, stats, nil
}

// Z evaluates the reduced multiport impedance
// Z̃(s) = B̃ᵀ (G̃ + sC̃)⁻¹ B̃ (current in, voltage out — the natural
// transfer of the projected system).
func (md *Model) Z(s complex128) (*dense.CMat, error) {
	k := md.Dims
	a := dense.NewC(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			a.Set(i, j, complex(md.Gr.At(i, j), 0)+s*complex(md.Cr.At(i, j), 0))
		}
	}
	f, err := dense.FactorCLU(a)
	if err != nil {
		return nil, fmt.Errorf("prima: reduced system singular at s=%v", s)
	}
	z := dense.NewC(md.M, md.M)
	col := make([]complex128, k)
	for j := 0; j < md.M; j++ {
		for i := 0; i < k; i++ {
			col[i] = complex(md.Br.At(i, j), 0)
		}
		f.Solve(col)
		for i := 0; i < md.M; i++ {
			var acc complex128
			for kk := 0; kk < k; kk++ {
				acc += complex(md.Br.At(kk, i), 0) * col[kk]
			}
			z.Set(i, j, acc)
		}
	}
	return z, nil
}

// Y evaluates the reduced multiport admittance, the inverse of Z(s),
// comparable directly with core.System.Y and core.ReducedModel.Y.
func (md *Model) Y(s complex128) (*dense.CMat, error) {
	z, err := md.Z(s)
	if err != nil {
		return nil, err
	}
	f, err := dense.FactorCLU(z)
	if err != nil {
		return nil, fmt.Errorf("prima: impedance singular at s=%v", s)
	}
	y := dense.NewC(md.M, md.M)
	col := make([]complex128, md.M)
	for j := 0; j < md.M; j++ {
		for i := range col {
			col[i] = 0
		}
		col[j] = 1
		f.Solve(col)
		for i := 0; i < md.M; i++ {
			y.Set(i, j, col[i])
		}
	}
	return y, nil
}

// CheckPassive verifies the projected matrices are non-negative definite,
// PRIMA's passivity guarantee.
func (md *Model) CheckPassive(tol float64) bool {
	return dense.IsNonNegDefinite(md.Gr.Clone(), tol) && dense.IsNonNegDefinite(md.Cr.Clone(), tol)
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
