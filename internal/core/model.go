package core

import (
	"fmt"
	"math"

	"repro/internal/dense"
)

// ReducedModel is the output of the PACT reduction: the admittance
//
//	Y(s) = A′ + sB′ − Σᵢ s² rᵢᵀrᵢ / (1 + sλᵢ)
//
// where rᵢ is row i of R (k×m) and λᵢ > 0 the retained eigenvalues of E′
// (poles at s = −1/λᵢ). A′ and B′ are the first two moments of the
// original admittance at s = 0, so the reduction is exact at DC and in
// the first-order term; all retained poles are real and negative, and the
// model is passive by construction.
type ReducedModel struct {
	M      int
	Lambda []float64 // descending; length k
	A, B   *dense.Mat
	R      *dense.Mat // k×m connection rows
}

// K returns the number of retained poles (= internal nodes of the
// realized network).
func (r *ReducedModel) K() int { return len(r.Lambda) }

// PoleFreqs returns the retained pole frequencies in Hz (1/(2πλ)),
// ascending in frequency.
func (r *ReducedModel) PoleFreqs() []float64 {
	out := make([]float64, len(r.Lambda))
	for i, l := range r.Lambda {
		out[i] = 1 / (2 * math.Pi * l)
	}
	return out
}

// Y evaluates the reduced multiport admittance at the complex frequency
// s.
func (r *ReducedModel) Y(s complex128) *dense.CMat {
	m := r.M
	y := dense.NewC(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			y.Set(i, j, complex(r.A.At(i, j), 0)+s*complex(r.B.At(i, j), 0))
		}
	}
	for p, lam := range r.Lambda {
		f := -(s * s) / (1 + s*complex(lam, 0))
		for i := 0; i < m; i++ {
			ri := r.R.At(p, i)
			if ri == 0 {
				continue
			}
			for j := 0; j < m; j++ {
				y.Add(i, j, f*complex(ri*r.R.At(p, j), 0))
			}
		}
	}
	return y
}

// Matrices realizes the reduced model as (m+k)×(m+k) conductance and
// susceptance matrices with ports first. Each retained pole becomes one
// internal node; the free diagonal scaling of each internal row is chosen
// so that the internal capacitance diagonal equals the total coupling
// capacitance magnitude (αᵢ = Σⱼ|r_ij| / λᵢ), which realizes the internal
// node without a grounded capacitor — the convention that reproduces
// Eq. (20) of the paper.
func (r *ReducedModel) Matrices() (g, c *dense.Mat) {
	m, k := r.M, r.K()
	g = dense.New(m+k, m+k)
	c = dense.New(m+k, m+k)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			g.Set(i, j, r.A.At(i, j))
			c.Set(i, j, r.B.At(i, j))
		}
	}
	for p := 0; p < k; p++ {
		sumAbs := 0.0
		for j := 0; j < m; j++ {
			sumAbs += math.Abs(r.R.At(p, j))
		}
		alpha := 1.0
		if sumAbs > 0 {
			alpha = sumAbs / r.Lambda[p]
		}
		g.Set(m+p, m+p, alpha*alpha)
		c.Set(m+p, m+p, alpha*alpha*r.Lambda[p])
		for j := 0; j < m; j++ {
			v := alpha * r.R.At(p, j)
			c.Set(m+p, j, v)
			c.Set(j, m+p, v)
		}
	}
	return g, c
}

// CheckPassive verifies that the realized conductance and susceptance
// matrices are non-negative definite within tolerance — the
// necessary-and-sufficient passivity condition for RC multiports the
// paper builds on.
func (r *ReducedModel) CheckPassive(tol float64) bool {
	g, c := r.Matrices()
	return dense.IsNonNegDefinite(g, tol) && dense.IsNonNegDefinite(c, tol)
}

// Sparsify applies the RCFIT sparsity-enhancement heuristic to a
// symmetric realized matrix: every off-diagonal entry with
// |x_ij| < tol·√(x_ii·x_jj) is dropped and |x_ij| is added to both
// diagonal entries. The perturbation for each dropped pair,
// [[|x|, −x], [−x, |x|]], is non-negative definite, so passivity is
// preserved exactly. It returns the number of dropped entry pairs.
func Sparsify(x *dense.Mat, tol float64) int {
	if x.R != x.C {
		panic("core: Sparsify requires a square matrix")
	}
	n := x.R
	dropped := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := x.At(i, j)
			if v == 0 {
				continue
			}
			if math.Abs(v) < tol*math.Sqrt(math.Abs(x.At(i, i))*math.Abs(x.At(j, j))) {
				x.Set(i, j, 0)
				x.Set(j, i, 0)
				x.Add(i, i, math.Abs(v))
				x.Add(j, j, math.Abs(v))
				dropped++
			}
		}
	}
	return dropped
}

// String summarizes the model.
func (r *ReducedModel) String() string {
	return fmt.Sprintf("ReducedModel{ports: %d, poles: %d}", r.M, r.K())
}

// SParams converts a multiport admittance matrix to scattering parameters
// with real reference impedance z0 at every port:
//
//	S = (I − z0·Y)(I + z0·Y)⁻¹.
//
// For a passive network ‖S·a‖ ≤ ‖a‖ for every incident wave vector a.
func SParams(y *dense.CMat, z0 float64) (*dense.CMat, error) {
	if y.R != y.C {
		return nil, fmt.Errorf("core: SParams needs a square admittance matrix")
	}
	if z0 <= 0 {
		return nil, fmt.Errorf("core: reference impedance must be positive, got %g", z0)
	}
	m := y.R
	plus := dense.NewC(m, m)
	minus := dense.NewC(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			v := complex(z0, 0) * y.At(i, j)
			plus.Set(i, j, v)
			minus.Set(i, j, -v)
		}
		plus.Add(i, i, 1)
		minus.Add(i, i, 1)
	}
	f, err := dense.FactorCLU(plus)
	if err != nil {
		return nil, fmt.Errorf("core: I + z0·Y singular: %w", err)
	}
	// S = minus * plus⁻¹: solve plusᵀ colᵀ ... work column-wise on the
	// right factor: X = plus⁻¹ then S = minus·X; equivalently solve
	// plus·x_j = e_j and multiply.
	s := dense.NewC(m, m)
	col := make([]complex128, m)
	for j := 0; j < m; j++ {
		for i := range col {
			col[i] = 0
		}
		col[j] = 1
		f.Solve(col)
		for i := 0; i < m; i++ {
			var acc complex128
			for k := 0; k < m; k++ {
				acc += minus.At(i, k) * col[k]
			}
			s.Set(i, j, acc)
		}
	}
	return s, nil
}
