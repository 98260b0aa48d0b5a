package dense

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The oracle for the row-contiguous eigensolver is the column-layout
// EISPACK/JAMA pair it replaced, kept verbatim below. The new routines
// must reproduce its eigenvalues and eigenvectors bit for bit: the
// reduction keeps poles by comparing eigenvalues against λ_c, and the
// golden corpus pins the realized decks byte for byte.

// symEigRef is SymEig on the column-layout reference routines.
func symEigRef(a *Mat) ([]float64, *Mat, error) {
	n := a.R
	if n == 0 {
		return nil, New(0, 0), nil
	}
	d := make([]float64, n)
	e := make([]float64, n)
	tred2Ref(a, d, e)
	if err := tql2Ref(a, d, e); err != nil {
		return nil, nil, err
	}
	return d, a, nil
}

// tridiagEigRef is TridiagEig on the column-layout reference tql2.
func tridiagEigRef(alpha, beta []float64) ([]float64, *Mat, error) {
	k := len(alpha)
	d := append([]float64(nil), alpha...)
	e := make([]float64, k)
	for i := 1; i < k; i++ {
		e[i] = beta[i-1]
	}
	z := Identity(k)
	if err := tql2Ref(z, d, e); err != nil {
		return nil, nil, err
	}
	return d, z, nil
}

// tred2Ref reduces the symmetric matrix in v to tridiagonal form by
// Householder similarity transformations, accumulating the orthogonal
// transform into v. On return d holds the diagonal and e[1..n-1] the
// subdiagonal (e[0] = 0). Ported from the EISPACK/JAMA routine.
func tred2Ref(v *Mat, d, e []float64) {
	n := v.R
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
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
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
				v.Set(j, i, 0)
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
			for j := 0; j < i; j++ {
				f = d[j]
				v.Set(j, i, f)
				g = e[j] + v.At(j, j)*f
				for k := j + 1; k <= i-1; k++ {
					g += v.At(k, j) * d[k]
					e[k] += v.At(k, j) * f
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
				for k := j; k <= i-1; k++ {
					v.Add(k, j, -(f*e[k] + g*d[k]))
				}
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
			}
		}
		d[i] = h
	}
	// Accumulate transformations.
	for i := 0; i < n-1; i++ {
		v.Set(n-1, i, v.At(i, i))
		v.Set(i, i, 1)
		h := d[i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = v.At(k, i+1) / h
			}
			for j := 0; j <= i; j++ {
				g := 0.0
				for k := 0; k <= i; k++ {
					g += v.At(k, i+1) * v.At(k, j)
				}
				for k := 0; k <= i; k++ {
					v.Add(k, j, -g*d[k])
				}
			}
		}
		for k := 0; k <= i; k++ {
			v.Set(k, i+1, 0)
		}
	}
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
		v.Set(n-1, j, 0)
	}
	v.Set(n-1, n-1, 1)
	e[0] = 0
}

// tql2Ref diagonalizes a symmetric tridiagonal matrix (diagonal d,
// subdiagonal e[1..n-1]) by the implicit-shift QL algorithm, accumulating
// rotations into v. On return d holds the eigenvalues ascending and the
// columns of v the eigenvectors. Ported from the EISPACK/JAMA routine.
func tql2Ref(v *Mat, d, e []float64) error {
	n := len(d)
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
					for k := 0; k < n; k++ {
						h = v.At(k, i+1)
						v.Set(k, i+1, s*v.At(k, i)+c*h)
						v.Set(k, i, c*v.At(k, i)-s*h)
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
			for r := 0; r < n; r++ {
				tmp := v.At(r, i)
				v.Set(r, i, v.At(r, k))
				v.Set(r, k, tmp)
			}
		}
	}
	return nil
}

// eigCase is one symmetric eigenproblem of the oracle suite.
type eigCase struct {
	name string
	a    *Mat
}

func eigOracleCases() []eigCase {
	rng := rand.New(rand.NewSource(24))
	var cases []eigCase
	for _, n := range []int{1, 2, 3, 17, 64, 321} {
		cases = append(cases, eigCase{name: "random", a: randomSym(rng, n)})
	}
	// Not bitwise symmetric: the upper triangle differs from the lower
	// by a few ulps, as an assembled E′ can.
	for _, n := range []int{3, 17, 64} {
		a := randomSym(rng, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a.Set(i, j, a.At(i, j)*(1+float64(rng.Intn(5)-2)*0x1p-52))
			}
		}
		cases = append(cases, eigCase{name: "asymmetric-bits", a: a})
	}
	// A zero last row and column takes tred2's scale == 0 branch.
	for _, n := range []int{2, 17} {
		a := randomSym(rng, n)
		for j := 0; j < n; j++ {
			a.Set(n-1, j, 0)
			a.Set(j, n-1, 0)
		}
		cases = append(cases, eigCase{name: "zero-last", a: a})
	}
	// Repeated eigenvalues: I + u uᵀ has eigenvalue 1 of multiplicity
	// n−1, and a block diagonal of equal blocks repeats each block's pair.
	for _, n := range []int{3, 17} {
		u := make([]float64, n)
		for i := range u {
			u[i] = rng.NormFloat64()
		}
		a := Identity(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Add(i, j, u[i]*u[j])
			}
		}
		cases = append(cases, eigCase{name: "rank-one-update", a: a})
	}
	blocks := New(16, 16)
	for b := 0; b < 16; b += 2 {
		blocks.Set(b, b, 2)
		blocks.Set(b+1, b+1, 3)
		blocks.Set(b, b+1, 0.5)
		blocks.Set(b+1, b, 0.5)
	}
	cases = append(cases, eigCase{name: "equal-blocks", a: blocks})
	return cases
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestSymEigOracleBits(t *testing.T) {
	for _, tc := range eigOracleCases() {
		n := tc.a.R
		vals, vecs, err := SymEig(tc.a.Clone())
		if err != nil {
			t.Fatalf("%s n=%d: %v", tc.name, n, err)
		}
		rvals, rvecs, err := symEigRef(tc.a.Clone())
		if err != nil {
			t.Fatalf("%s n=%d: reference: %v", tc.name, n, err)
		}
		requireSameBits(t, tc.name+" values", vals, rvals)
		if vecs.R != n || vecs.C != n {
			t.Fatalf("%s n=%d: vectors are %dx%d", tc.name, n, vecs.R, vecs.C)
		}
		requireSameBits(t, tc.name+" vectors", vecs.Data, rvecs.Data)
	}
}

// TestSymEigValuesOracleBits pins the values-only solve to the reference
// pair: the reduction without accumulation and QL without rotations
// must return every eigenvalue bit for bit.
func TestSymEigValuesOracleBits(t *testing.T) {
	for _, tc := range eigOracleCases() {
		vals, err := SymEigValues(tc.a.Clone())
		if err != nil {
			t.Fatalf("%s n=%d: %v", tc.name, tc.a.R, err)
		}
		rvals, _, err := symEigRef(tc.a.Clone())
		if err != nil {
			t.Fatalf("%s n=%d: reference: %v", tc.name, tc.a.R, err)
		}
		requireSameBits(t, tc.name+" values", vals, rvals)
	}
}

func TestTridiagEigOracleBits(t *testing.T) {
	rng := rand.New(rand.NewSource(2401))
	type tcase struct {
		name        string
		alpha, beta []float64
	}
	var cases []tcase
	for _, k := range []int{1, 2, 3, 17, 64, 321} {
		alpha := make([]float64, k)
		beta := make([]float64, k-1)
		for i := range alpha {
			alpha[i] = rng.NormFloat64()
		}
		for i := range beta {
			beta[i] = rng.NormFloat64()
		}
		cases = append(cases, tcase{"random", alpha, beta})
	}
	// A zero subdiagonal entry splits the matrix; a constant diagonal
	// with zero coupling repeats one eigenvalue.
	split := []float64{1, 2, 3, 4, 5, 6, 7}
	cases = append(cases, tcase{"split", split, []float64{0.5, 0.25, 0, 0.75, 0, 1}})
	cases = append(cases, tcase{"repeated", []float64{2, 2, 2, 2, 2}, []float64{0, 0, 1e-3, 0}})
	for _, tc := range cases {
		vals, z, err := TridiagEig(tc.alpha, tc.beta)
		if err != nil {
			t.Fatalf("%s k=%d: %v", tc.name, len(tc.alpha), err)
		}
		rvals, rz, err := tridiagEigRef(tc.alpha, tc.beta)
		if err != nil {
			t.Fatalf("%s k=%d: reference: %v", tc.name, len(tc.alpha), err)
		}
		requireSameBits(t, tc.name+" values", vals, rvals)
		requireSameBits(t, tc.name+" vectors", z.Data, rz.Data)
	}
}
