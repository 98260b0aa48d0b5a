package dense

import (
	"fmt"
	"math"
)

// SymEig computes the eigendecomposition of the symmetric matrix a:
// a = V diag(vals) Vᵀ with eigenvalues sorted ascending and eigenvectors
// in the columns of V. The input matrix is destroyed. Callers that need
// only the eigenvalues use SymEigValues, and callers that need only the
// eigenpairs above a cutoff use SymEigAbove; both return eigenvalues
// bit-identical to SymEig's.
//
// The implementation is the classic EISPACK pair: Householder
// tridiagonalization (tred2) followed by implicit-shift QL iteration
// (tql2), both run on the transpose Vᵀ so that every inner loop walks a
// contiguous row (see transposeSquare).
func SymEig(a *Mat) (vals []float64, vecs *Mat, err error) {
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
	tred2Reduce(a, d, e)
	tred2Accumulate(a, d, e)
	if err := tql2(a, d, e); err != nil {
		return nil, nil, err
	}
	transposeSquare(a)
	return d, a, nil
}

// SymEigValues returns the eigenvalues of the symmetric matrix a,
// ascending, destroying a. It runs tred2's reduction without
// accumulating the transform and tql2 without rotating vectors: tred2
// fixes the tridiagonal before its accumulation phase starts, and tql2's
// d/e recursion never reads the vectors, so every eigenvalue is
// Float64bits-identical to SymEig's, in about a fifth of SymEig's time
// at n = 320 (BenchmarkSymEigValues).
func SymEigValues(a *Mat) ([]float64, error) {
	if a.R != a.C {
		return nil, fmt.Errorf("dense: SymEigValues requires square matrix, got %dx%d", a.R, a.C)
	}
	n := a.R
	if n == 0 {
		return nil, nil
	}
	d := make([]float64, n)
	e := make([]float64, n)
	transposeSquare(a)
	tred2Reduce(a, d, e)
	tridiagOf(a, d, e)
	if err := tql2(nil, d, e); err != nil {
		return nil, err
	}
	return d, nil
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

// tred2Reduce is the reduction phase of tred2: it reduces the symmetric
// matrix to tridiagonal form by Householder similarity transformations
// without accumulating them. w holds the transpose of the input
// (w(j, k) = a(k, j)). On return e[1..n-1] holds the subdiagonal, the
// diagonal of w the diagonal, row i of w (columns 0..i-1) the Householder
// vector uᵢ of step i and d[i] its scalar hᵢ (i ≥ 1), so that
//
//	Q = Hₙ₋₁·…·H₂·H₁ (applied to a vector: H₁ first),
//	Hᵢ = I − uᵢuᵢᵀ/hᵢ acting on coordinates 0..i-1 (identity when hᵢ = 0),
//
// gives a = Q T Qᵀ. Ported from the EISPACK/JAMA routine, with every
// v(k, j) read as w(j, k).
func tred2Reduce(w *Mat, d, e []float64) {
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
			// e = W·d over the upper triangle of rows 0..i-1, two rows per
			// pass: every e[k] still receives row j's term before row
			// j+1's, and each g sums its row in column order, so the bits
			// are those of the one-row loop.
			wi := a[i*n : i*n+i]
			j := 0
			for ; j+1 < i; j += 2 {
				f0, f1 := d[j], d[j+1]
				wi[j], wi[j+1] = f0, f1
				w0 := a[j*n : j*n+i]
				w1 := a[(j+1)*n : (j+1)*n+i]
				g0 := e[j] + w0[j]*f0
				x := w0[j+1]
				g0 += x * d[j+1]
				e[j+1] += x * f0
				g1 := e[j+1] + w1[j+1]*f1
				x0s, x1s := w0[j+2:], w1[j+2:]
				dk, ek := d[j+2:i], e[j+2:i]
				x1s, dk, ek = x1s[:len(x0s)], dk[:len(x0s)], ek[:len(x0s)]
				for k, x0 := range x0s {
					x1 := x1s[k]
					g0 += x0 * dk[k]
					g1 += x1 * dk[k]
					t := ek[k]
					t += x0 * f0
					t += x1 * f1
					ek[k] = t
				}
				e[j], e[j+1] = g0, g1
			}
			for ; j < i; j++ {
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
			// The rank-2 update W −= d·eᵀ + e·dᵀ, two rows per pass. Row j
			// reads d[j+1] before row j+1 replaces it, as in the one-row
			// loop.
			j = 0
			for ; j+1 < i; j += 2 {
				f0, g0 := d[j], e[j]
				f1, g1 := d[j+1], e[j+1]
				w0 := a[j*n : j*n+i]
				w1 := a[(j+1)*n : (j+1)*n+i]
				w0[j] += -(f0*e[j] + g0*d[j])
				x0s, x1s := w0[j+1:], w1[j+1:]
				dk, ek := d[j+1:i], e[j+1:i]
				x1s, dk, ek = x1s[:len(x0s)], dk[:len(x0s)], ek[:len(x0s)]
				for k := range x0s {
					x0s[k] += -(f0*ek[k] + g0*dk[k])
					x1s[k] += -(f1*ek[k] + g1*dk[k])
				}
				d[j], d[j+1] = w0[i-1], w1[i-1]
				a[j*n+i], a[(j+1)*n+i] = 0, 0
			}
			for ; j < i; j++ {
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
}

// tridiagOf copies the diagonal tred2Reduce left in w into d and clears
// e[0], completing T in tql2's layout: the same values tred2Accumulate
// moves into d, so a solve without accumulation sees the bits SymEig's
// does.
func tridiagOf(w *Mat, d, e []float64) {
	n := w.R
	for j := 0; j < n; j++ {
		d[j] = w.Data[j*n+j]
	}
	e[0] = 0
}

// tred2Accumulate is the accumulation phase of tred2: from the state
// tred2Reduce leaves, it builds the transpose Vᵀ of the orthogonal
// transform in w and moves the diagonal into d (e[0] = 0). Its writes
// never reach the diagonal entries tridiagOf reads before it moves them.
func tred2Accumulate(w *Mat, d, e []float64) {
	n := w.R
	a := w.Data
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
// eigenvectors. A nil w skips the rotations and the sort's row swaps;
// the d/e recursion never reads w, so the eigenvalues are the same bits.
// Ported from the EISPACK/JAMA routine, with every column of v read as a
// row of w.
func tql2(w *Mat, d, e []float64) error {
	n := len(d)
	var a []float64
	if w != nil {
		a = w.Data
	}
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
					if a == nil {
						continue
					}
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
			if a == nil {
				continue
			}
			wi := a[i*n : i*n+n]
			wk := a[k*n : k*n+n]
			for r := range wi {
				wi[r], wk[r] = wk[r], wi[r]
			}
		}
	}
	return nil
}
