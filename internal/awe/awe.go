// Package awe implements Asymptotic Waveform Evaluation (Pillage &
// Rohrer), the Padé-approximation baseline the paper contrasts PACT with.
// Moments of a transfer function are computed by repeated sparse solves,
// and a q-pole model is fitted by solving the moment Hankel system
// (Prony's method) and rooting the characteristic polynomial.
//
// AWE exhibits exactly the failure modes Section 1 of the paper
// describes: higher moments are dominated by the smallest pole, the
// Hankel system becomes violently ill-conditioned, and the fitted model
// can acquire positive (unstable) or spurious complex poles — none of
// which can happen to PACT, whose poles are eigenvalues of a symmetric
// non-negative definite pencil.
package awe

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/chol"
	"repro/internal/dense"
	"repro/internal/order"
	"repro/internal/sparse"
)

// Moments computes the first count moments of the transfer function
// H(s) = lᵀ x(s), (G + sC) x = b, expanded at s = 0:
//
//	x₀ = G⁻¹ b,  x_{k+1} = −G⁻¹ C x_k,  m_k = lᵀ x_k.
//
// G must be symmetric positive definite (a grounded RC conductance
// matrix).
func Moments(g, c *sparse.CSR, b, l []float64, count int) ([]float64, error) {
	n := g.Rows
	if g.Cols != n || c.Rows != n || c.Cols != n || len(b) != n || len(l) != n {
		return nil, errors.New("awe: dimension mismatch")
	}
	sym, gp := order.Analyze(g, order.MinimumDegree)
	f, err := chol.Factorize(gp, sym)
	if err != nil {
		return nil, fmt.Errorf("awe: conductance factorization: %w", err)
	}
	// Work in permuted space.
	cp := c.PermuteSym(sym.Perm)
	x := make([]float64, n)
	lp := make([]float64, n)
	for i, p := range sym.Perm {
		x[i] = b[p]
		lp[i] = l[p]
	}
	f.Solve(x)
	moments := make([]float64, count)
	tmp := make([]float64, n)
	for k := 0; k < count; k++ {
		moments[k] = sparse.Dot(lp, x)
		if k == count-1 {
			break
		}
		cp.MulVec(tmp, x)
		f.Solve(tmp)
		for i := range x {
			x[i] = -tmp[i]
		}
	}
	return moments, nil
}

// PoleResidueModel approximates H(s) ≈ m₀ + Σ k_i·s/(s − p_i)... in the
// classic AWE normalization H(s) = Σ_i k_i/(s − p_i) + direct, matching
// the first 2q moments of the expansion at s = 0.
type PoleResidueModel struct {
	Poles    []complex128
	Residues []complex128
}

// Pade fits a q-pole model to the first 2q moments via Prony's method:
// the moment sequence m_j = Σ_i b_i λ_i^j (λ_i = 1/p_i, b_i = −k_i/p_i)
// obeys a linear recurrence whose characteristic polynomial is found from
// the Hankel system; its roots give the poles and a Vandermonde solve the
// residues.
func Pade(moments []float64, q int) (*PoleResidueModel, error) {
	if len(moments) < 2*q {
		return nil, fmt.Errorf("awe: need %d moments for %d poles, have %d", 2*q, q, len(moments))
	}
	// Hankel solve for the recurrence coefficients c_0..c_{q-1} with
	// Σ_{l} c_l m_{j+l} + m_{j+q} = 0.
	h := dense.New(q, q)
	rhs := make([]float64, q)
	for j := 0; j < q; j++ {
		for l := 0; l < q; l++ {
			h.Set(j, l, moments[j+l])
		}
		rhs[j] = -moments[j+q]
	}
	coef, err := dense.SolveLinear(h, rhs)
	if err != nil {
		return nil, fmt.Errorf("awe: Hankel system singular (ill-conditioned moments): %w", err)
	}
	// Roots of z^q + c_{q-1} z^{q-1} + ... + c_0 (λ domain).
	poly := make([]complex128, q+1)
	poly[q] = 1
	for l := 0; l < q; l++ {
		poly[l] = complex(coef[l], 0)
	}
	lambda, err := durandKerner(poly)
	if err != nil {
		return nil, err
	}
	// Vandermonde solve for b_i: m_j = Σ b_i λ_i^j, j = 0..q-1.
	v := dense.NewC(q, q)
	for j := 0; j < q; j++ {
		for i := 0; i < q; i++ {
			v.Set(j, i, cmplx.Pow(lambda[i], complex(float64(j), 0)))
		}
	}
	fv, err := dense.FactorCLU(v)
	if err != nil {
		return nil, fmt.Errorf("awe: Vandermonde singular (repeated poles): %w", err)
	}
	bvec := make([]complex128, q)
	for j := 0; j < q; j++ {
		bvec[j] = complex(moments[j], 0)
	}
	fv.Solve(bvec)
	model := &PoleResidueModel{}
	for i := 0; i < q; i++ {
		if lambda[i] == 0 {
			return nil, errors.New("awe: zero root (pole at infinity)")
		}
		p := 1 / lambda[i]
		model.Poles = append(model.Poles, p)
		model.Residues = append(model.Residues, -bvec[i]*p)
	}
	return model, nil
}

// Eval evaluates the fitted model at complex frequency s.
func (m *PoleResidueModel) Eval(s complex128) complex128 {
	var acc complex128
	for i, p := range m.Poles {
		acc += m.Residues[i] / (s - p)
	}
	return acc
}

// Stable reports whether every pole has a strictly negative real part
// (asymptotic stability). The exact network's poles are all real
// negative; AWE models frequently violate this for larger q.
func (m *PoleResidueModel) Stable() bool {
	for _, p := range m.Poles {
		if real(p) >= 0 {
			return false
		}
	}
	return true
}

// RealNegative reports whether every pole is (numerically) real and
// negative, the property PACT guarantees by construction.
func (m *PoleResidueModel) RealNegative() bool {
	for _, p := range m.Poles {
		if real(p) >= 0 || math.Abs(imag(p)) > 1e-9*cmplx.Abs(p) {
			return false
		}
	}
	return true
}

// durandKerner finds all roots of the monic polynomial with coefficients
// poly[0] + poly[1] z + ... + poly[n] z^n (poly[n] must be 1) by
// simultaneous (Weierstrass) iteration.
func durandKerner(poly []complex128) ([]complex128, error) {
	n := len(poly) - 1
	if n == 0 {
		return nil, nil
	}
	eval := func(z complex128) complex128 {
		acc := poly[n]
		for k := n - 1; k >= 0; k-- {
			acc = acc*z + poly[k]
		}
		return acc
	}
	// Initial guesses on a non-real circle.
	roots := make([]complex128, n)
	for i := range roots {
		roots[i] = cmplx.Pow(complex(0.4, 0.9), complex(float64(i+1), 0))
	}
	for iter := 0; iter < 500; iter++ {
		maxStep := 0.0
		for i := range roots {
			den := complex(1, 0)
			for j := range roots {
				if j != i {
					den *= roots[i] - roots[j]
				}
			}
			if den == 0 {
				den = complex(1e-300, 0)
			}
			step := eval(roots[i]) / den
			roots[i] -= step
			if a := cmplx.Abs(step); a > maxStep {
				maxStep = a
			}
		}
		scale := 0.0
		for _, r := range roots {
			if a := cmplx.Abs(r); a > scale {
				scale = a
			}
		}
		if maxStep <= 1e-13*(scale+1) {
			return roots, nil
		}
	}
	// Accept the best effort; Durand–Kerner stalls only on pathological
	// inputs, and AWE instability detection does not need exact roots.
	return roots, nil
}
