// Package dense provides the small dense linear-algebra kernels PACT
// needs: a row-major matrix type, dense Cholesky and LU solves (real and
// complex), Householder tridiagonalization and the implicit-shift QL
// eigensolver for symmetric matrices, and the symmetric tridiagonal
// eigensolver used on the Lanczos T matrix.
package dense

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix.
type Mat struct {
	R, C int
	Data []float64
}

// New returns a zeroed r-by-c matrix.
func New(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic("dense: negative dimension")
	}
	return &Mat{R: r, C: c, Data: make([]float64, r*c)}
}

// NewFromRows builds a matrix from row slices (copied).
func NewFromRows(rows [][]float64) *Mat {
	r := len(rows)
	c := 0
	if r > 0 {
		c = len(rows[0])
	}
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("dense: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n-by-n identity.
func Identity(n int) *Mat {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Add accumulates v into element (i, j).
func (m *Mat) Add(i, j int, v float64) { m.Data[i*m.C+j] += v }

// SetSym assigns v to both (i, j) and (j, i), making symmetry
// constructional: a matrix filled only through SetSym (one triangle's
// worth of computed values, mirrored at write time) is exactly symmetric
// with no post-hoc Symmetrize averaging. In parallel fills, the pair
// {(i,j), (j,i)} must be written by a single goroutine.
func (m *Mat) SetSym(i, j int, v float64) {
	m.Data[i*m.C+j] = v
	m.Data[j*m.C+i] = v
}

// Row returns row i as a sub-slice of the backing storage.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.C : (i+1)*m.C] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	return &Mat{R: m.R, C: m.C, Data: append([]float64(nil), m.Data...)}
}

// T returns the transpose as a new matrix.
func (m *Mat) T() *Mat {
	t := New(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			t.Data[j*t.C+i] = m.Data[i*m.C+j]
		}
	}
	return t
}

// Scale multiplies all entries by f in place.
func (m *Mat) Scale(f float64) {
	for i := range m.Data {
		m.Data[i] *= f
	}
}

// Mul returns a*b by the i-k-j triple loop, skipping structural zeros
// of a.
func Mul(a, b *Mat) *Mat {
	if a.C != b.R {
		panic(fmt.Sprintf("dense: Mul dimension mismatch %dx%d * %dx%d", a.R, a.C, b.R, b.C))
	}
	out := New(a.R, b.C)
	for i := 0; i < a.R; i++ {
		orow := out.Row(i)
		for k, aik := range a.Row(i) {
			if aik == 0 {
				continue
			}
			for j, bkj := range b.Row(k) {
				orow[j] += aik * bkj
			}
		}
	}
	return out
}

// MulVec returns A x as a new slice.
func (m *Mat) MulVec(x []float64) []float64 {
	if len(x) != m.C {
		panic("dense: MulVec dimension mismatch")
	}
	out := make([]float64, m.R)
	for i := range out {
		s := 0.0
		for j, v := range m.Row(i) {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// MaxAbs returns the largest absolute entry.
func (m *Mat) MaxAbs() float64 {
	maxv := 0.0
	for _, v := range m.Data {
		if v < 0 {
			v = -v
		}
		if v > maxv {
			maxv = v
		}
	}
	return maxv
}

// Symmetrize replaces m by (m + mᵀ)/2, removing roundoff asymmetry.
func (m *Mat) Symmetrize() {
	if m.R != m.C {
		panic("dense: Symmetrize requires square matrix")
	}
	n := m.R
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (m.Data[i*n+j] + m.Data[j*n+i])
			m.Data[i*n+j] = v
			m.Data[j*n+i] = v
		}
	}
}

// Cholesky factors the symmetric positive definite matrix a in place into
// its lower Cholesky factor (the strict upper triangle is zeroed). It
// returns an error on a non-positive pivot.
func Cholesky(a *Mat) error {
	if a.R != a.C {
		return fmt.Errorf("dense: Cholesky requires square matrix")
	}
	n := a.R
	for k := 0; k < n; k++ {
		d := a.At(k, k)
		for j := 0; j < k; j++ {
			d -= a.At(k, j) * a.At(k, j)
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("dense: Cholesky pivot %d = %g not positive", k, d)
		}
		lkk := math.Sqrt(d)
		a.Set(k, k, lkk)
		for i := k + 1; i < n; i++ {
			s := a.At(i, k)
			for j := 0; j < k; j++ {
				s -= a.At(i, j) * a.At(k, j)
			}
			a.Set(i, k, s/lkk)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a.Set(i, j, 0)
		}
	}
	return nil
}

// IsNonNegDefinite reports whether the symmetric matrix a is non-negative
// definite within tolerance tol (relative to the largest diagonal entry):
// its smallest eigenvalue must exceed -tol*scale. This is the passivity
// check from Section 3 of the paper.
func IsNonNegDefinite(a *Mat, tol float64) bool {
	vals, err := SymEigValues(a.Clone())
	if err != nil {
		return false
	}
	scale := 0.0
	for i := 0; i < a.R; i++ {
		if d := math.Abs(a.At(i, i)); d > scale {
			scale = d
		}
	}
	if scale == 0 {
		scale = 1
	}
	for _, v := range vals {
		if v < -tol*scale {
			return false
		}
	}
	return true
}
