package chol

import (
	"repro/internal/order"
	"repro/internal/sparse"
)

// supernodalMinOrder is the matrix order at and above which Analyze
// selects the supernodal blocked kernel. Below it the scalar up-looking
// kernel wins: panel bookkeeping costs more than it saves (DESIGN.md
// §10 records the measurement).
const supernodalMinOrder = 512

// Analysis is the symbolic state shared by every numeric factorization
// of one ordered pattern: the pattern, its symbolic factorization, and —
// at supernodal order — the supernodal structure. Analyze is
// the one place the factorization kernel is chosen. Analyze once, then
// Factorize (real LLᵀ) or FactorizeComplex (complex LDLᵀ of D + sE) per
// value set: the Cholesky of Transform 1 and each rung of its recovery
// ladder, every frequency point of a Y(s) sweep, and every shift of the
// multi-expansion-point reduction. An Analysis is immutable and safe to
// share.
type Analysis struct {
	// pat is the analyzed pattern. Factorize takes a matrix with exactly
	// this pattern; FactorizeComplex's val callback is indexed by pat's
	// stored positions.
	pat *sparse.CSR
	sym *order.Symbolic
	ss  *superSymbolic // nil for the up-looking kernel
}

// Analyze performs the symbolic analysis for repeated factorizations of
// the given ordered full symmetric pattern and its symbolic
// factorization: the pair order.Analyze returns (sym, pat :=
// order.Analyze(a, method)). Orders at or above supernodalMinOrder additionally get
// the supernode partition, so every subsequent factorization runs
// the blocked DAG-scheduled kernel; smaller orders run the scalar
// up-looking kernel.
func Analyze(pat *sparse.CSR, sym *order.Symbolic) (*Analysis, error) {
	an := &Analysis{pat: pat, sym: sym}
	if pat.Rows >= supernodalMinOrder {
		ss, err := analyzeSuper(pat, sym, order.DefaultMaxWidth)
		if err != nil {
			return nil, err
		}
		an.ss = ss
	}
	return an, nil
}

// Supernodal reports whether the analysis runs the supernodal kernel.
func (an *Analysis) Supernodal() bool { return an.ss != nil }

// NewWorkspace returns a reusable factorization workspace for the
// supernodal kernel, or nil for the up-looking kernel (which allocates
// per call and ignores the workspace).
func (an *Analysis) NewWorkspace() *FactorWorkspace {
	if an.ss == nil {
		return nil
	}
	return &FactorWorkspace{ss: an.ss}
}

// Factorize runs one real Cholesky factorization A = LLᵀ of a, which
// must carry exactly the analyzed pattern. A non-nil workspace
// (supernodal kernel only) is reused across calls; the returned factor
// then aliases it and is valid until the next factorization through the
// same workspace.
func (an *Analysis) Factorize(a *sparse.CSR, ws *FactorWorkspace) (*Factor, error) {
	if an.ss != nil {
		return an.ss.factorize(a, ws)
	}
	return factorizeUpLooking(a, an.sym)
}

// FactorizeComplex runs one complex LDLᵀ numeric factorization of the
// analyzed pattern with entry values supplied per stored pattern
// position; the workspace behaves as in Factorize.
func (an *Analysis) FactorizeComplex(val func(p int) complex128, ws *FactorWorkspace) (*ComplexFactor, error) {
	if an.ss != nil {
		return an.ss.factorizeComplex(an.pat, val, ws)
	}
	return factorizeComplexUpLooking(an.pat, val, an.sym)
}
