package dense

import (
	"fmt"
	"math"
)

// SymEig computes the eigendecomposition of the symmetric matrix a:
// a = V diag(vals) Vᵀ with eigenvalues sorted ascending and eigenvectors
// in the columns of V. The input matrix is destroyed. When wantVecs is
// false the returned matrix is nil (the work is still O(n³) but with a
// smaller constant since no accumulation correctness is needed by
// callers).
//
// The implementation is the classic EISPACK pair: Householder
// tridiagonalization (tred2) followed by implicit-shift QL iteration
// (tql2), both run on the transpose Vᵀ so that every inner loop walks a
// contiguous row (see transposeSquare).
func SymEig(a *Mat, wantVecs bool) (vals []float64, vecs *Mat, err error) {
	if a.R != a.C {
		return nil, nil, fmt.Errorf("dense: SymEig requires square matrix, got %dx%d", a.R, a.C)
	}
	n := a.R
	if n == 0 {
		return nil, New(0, 0), nil
	}
	d := make([]float64, n)
	e := make([]float64, n)
	// Tridiagonalize in place, accumulating Vᵀ into a. The entry
	// transpose makes tred2 read the same triangle of a not bitwise
	// symmetric input as the column layout would.
	transposeSquare(a)
	tred2(a, d, e)
	if err := tql2(a, d, e); err != nil {
		return nil, nil, err
	}
	if !wantVecs {
		return d, nil, nil
	}
	transposeSquare(a)
	return d, a, nil
}

// TridiagEig computes the full eigensystem of the symmetric tridiagonal
// matrix with diagonal alpha (length k) and subdiagonal beta (length k-1):
// T = Z diag(vals) Zᵀ, eigenvalues ascending, eigenvectors in columns of
// Z. It is the inner solve of every Lanczos step.
func TridiagEig(alpha, beta []float64) (vals []float64, z *Mat, err error) {
	k := len(alpha)
	if len(beta) != k-1 && !(k == 0 && len(beta) == 0) {
		return nil, nil, fmt.Errorf("dense: TridiagEig needs len(beta) == len(alpha)-1")
	}
	if k == 0 {
		return nil, New(0, 0), nil
	}
	d := append([]float64(nil), alpha...)
	e := make([]float64, k)
	for i := 1; i < k; i++ {
		e[i] = beta[i-1]
	}
	z = Identity(k) // Zᵀ = I
	if err := tql2(z, d, e); err != nil {
		return nil, nil, err
	}
	transposeSquare(z)
	return d, z, nil
}

// transposeSquare transposes the square matrix m in place.
//
// tred2 and tql2 keep the accumulated transform as its transpose: the
// EISPACK/JAMA routines walk columns of V in every inner loop (the
// Householder dot products and updates, the QL rotations, the sort
// swaps), which are rows of Vᵀ. Each element still sees exactly the
// operation sequence of the column-layout routines, so every eigenvalue
// and eigenvector entry is bit-identical to theirs; only the memory
// order of the walk changes.
func transposeSquare(m *Mat) {
	n := m.R
	a := m.Data
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a[i*n+j], a[j*n+i] = a[j*n+i], a[i*n+j]
		}
	}
}

// tred2 reduces the symmetric matrix to tridiagonal form by Householder
// similarity transformations. w holds the transpose of the input
// (w(j, k) = a(k, j)) and receives the transpose Vᵀ of the orthogonal
// transform. On return d holds the diagonal and e[1..n-1] the
// subdiagonal (e[0] = 0). Ported from the EISPACK/JAMA routine, with
// every v(k, j) read as w(j, k).
func tred2(w *Mat, d, e []float64) {
	n := w.R
	a := w.Data
	for j := 0; j < n; j++ {
		d[j] = a[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		scale := 0.0
		h := 0.0
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = a[j*n+i-1]
				a[j*n+i] = 0
				a[i*n+j] = 0
			}
		} else {
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}
			wi := a[i*n : i*n+i]
			for j := 0; j < i; j++ {
				f = d[j]
				wi[j] = f
				wj := a[j*n : j*n+i]
				g = e[j] + wj[j]*f
				wk := wj[j+1:]
				dk, ek := d[j+1:i], e[j+1:i]
				dk, ek = dk[:len(wk)], ek[:len(wk)]
				for k, x := range wk {
					g += x * dk[k]
					ek[k] += x * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				f = d[j]
				g = e[j]
				wj := a[j*n : j*n+i]
				wk := wj[j:]
				dk, ek := d[j:i], e[j:i]
				dk, ek = dk[:len(wk)], ek[:len(wk)]
				for k := range wk {
					wk[k] += -(f*ek[k] + g*dk[k])
				}
				d[j] = wj[i-1]
				a[j*n+i] = 0
			}
		}
		d[i] = h
	}
	// Accumulate transformations.
	for i := 0; i < n-1; i++ {
		a[i*n+n-1] = a[i*n+i]
		a[i*n+i] = 1
		h := d[i+1]
		wi1 := a[(i+1)*n : (i+1)*n+i+1]
		if h != 0 {
			dk := d[:len(wi1)]
			for k, x := range wi1 {
				dk[k] = x / h
			}
			for j := 0; j <= i; j++ {
				wj := a[j*n : j*n+i+1]
				g := 0.0
				for k, x := range wi1 {
					g += x * wj[k]
				}
				dk := d[:len(wj)]
				for k := range wj {
					wj[k] += -g * dk[k]
				}
			}
		}
		for k := range wi1 {
			wi1[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = a[j*n+n-1]
		a[j*n+n-1] = 0
	}
	a[(n-1)*n+n-1] = 1
	e[0] = 0
}

// tql2 diagonalizes a symmetric tridiagonal matrix (diagonal d,
// subdiagonal e[1..n-1]) by the implicit-shift QL algorithm, accumulating
// rotations into w, which holds the transpose of the eigenvector matrix.
// On return d holds the eigenvalues ascending and the rows of w the
// eigenvectors. Ported from the EISPACK/JAMA routine, with every column
// of v read as a row of w.
func tql2(w *Mat, d, e []float64) error {
	n := len(d)
	a := w.Data
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	f := 0.0
	tst1 := 0.0
	const eps = 2.220446049250313e-16
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}
		if m > l {
			for iter := 0; ; iter++ {
				if iter > 50 {
					return fmt.Errorf("dense: QL iteration failed to converge at eigenvalue %d", l)
				}
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h
				p = d[m]
				c := 1.0
				c2, c3 := c, c
				el1 := e[l+1]
				s, s2 := 0.0, 0.0
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					wi := a[i*n : i*n+n]
					wi1 := a[(i+1)*n : (i+1)*n+n]
					wi = wi[:len(wi1)]
					for k, x := range wi1 {
						wi1[k] = s*wi[k] + c*x
						wi[k] = c*wi[k] - s*x
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
			d[l] += f
			e[l] = 0
		} else {
			d[l] += f
			e[l] = 0
		}
	}
	// Sort eigenvalues ascending, permuting eigenvectors alongside.
	for i := 0; i < n-1; i++ {
		k := i
		p := d[i]
		for j := i + 1; j < n; j++ {
			if d[j] < p {
				k = j
				p = d[j]
			}
		}
		if k != i {
			d[k] = d[i]
			d[i] = p
			wi := a[i*n : i*n+n]
			wk := a[k*n : k*n+n]
			for r := range wi {
				wi[r], wk[r] = wk[r], wi[r]
			}
		}
	}
	return nil
}
