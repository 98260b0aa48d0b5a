package dense

import (
	"math"
	"math/rand"
	"testing"
)

// The selected-pair oracle: SymEigAbove against SymEig on the same
// matrix. Eigenvalues must be the same bits; eigenvectors are computed
// by a different method, so they are checked by the properties that
// define them — residual, orthogonality, and agreement with SymEig's
// vectors up to sign (isolated eigenvalues) or as invariant-subspace
// projectors (clusters), within bounds scaled by the spectral gap.

// selCases extends the bit-oracle suite with the spectra inverse
// iteration finds hardest: graded spectra over many decades, disjoint
// copies of one block (every eigenvalue repeated, T split into
// decoupled blocks), and a near-degenerate pair.
func selCases() []eigCase {
	cases := eigOracleCases()
	rng := rand.New(rand.NewSource(3101))
	for _, n := range []int{24, 96} {
		cases = append(cases, eigCase{"graded", withSpectrum(rng, gradedSpectrum(n, 12))})
	}
	for _, n := range []int{8, 40} {
		b := randomSym(rng, n)
		a := New(2*n, 2*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, b.At(i, j))
				a.Set(n+i, n+j, b.At(i, j))
			}
		}
		cases = append(cases, eigCase{"disjoint-copies", a})
	}
	spec := gradedSpectrum(48, 6)
	spec[47] = spec[46] * (1 + 1e-11)
	cases = append(cases, eigCase{"near-degenerate", withSpectrum(rng, spec)})
	return cases
}

// gradedSpectrum returns n eigenvalues log-spaced over the given decades
// below 1.
func gradedSpectrum(n int, decades float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Pow(10, -decades*float64(n-1-i)/float64(n-1))
	}
	return s
}

// withSpectrum returns Q diag(spec) Qᵀ for a random orthogonal Q (the
// eigenvectors of a random symmetric matrix), symmetric by construction.
func withSpectrum(rng *rand.Rand, spec []float64) *Mat {
	n := len(spec)
	_, q, err := SymEig(randomSym(rng, n))
	if err != nil {
		panic(err)
	}
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for l, lam := range spec {
				s += q.At(i, l) * lam * q.At(j, l)
			}
			a.SetSym(i, j, s)
		}
	}
	return a
}

// selCutoffs returns cutoffs selecting none, all, and a middle share of
// the spectrum vals (ascending), the middle one placed in a gap of at
// least 1e-6·‖A‖ so that no cluster straddles it.
func selCutoffs(vals []float64) []float64 {
	n := len(vals)
	cuts := []float64{math.Inf(1), math.Inf(-1)}
	norm := math.Max(math.Abs(vals[0]), math.Abs(vals[n-1]))
	for j := (2 * n) / 3; j > 0; j-- {
		if vals[j]-vals[j-1] >= 1e-6*norm {
			cuts = append(cuts, vals[j-1]+(vals[j]-vals[j-1])/2)
			break
		}
	}
	return cuts
}

// VerifySelected checks SymEigAbove(a, cutoff) against SymEig(a). It is
// exported to the external tests that build their matrices from
// generated circuits.
func VerifySelected(t *testing.T, name string, a *Mat, cutoff float64) {
	t.Helper()
	n := a.R
	allVals, allVecs, err := SymEig(a.Clone())
	if err != nil {
		t.Fatalf("%s n=%d: SymEig: %v", name, n, err)
	}
	vals, vt, fallback, err := SymEigAbove(a.Clone(), cutoff)
	if err != nil || fallback != nil {
		t.Fatalf("%s n=%d: SymEigAbove: err %v, fallback %v", name, n, err, fallback)
	}
	k := 0
	for k < n && allVals[n-1-k] >= cutoff {
		k++
	}
	want := make([]float64, k)
	for c := range want {
		want[c] = allVals[n-1-c]
	}
	requireSameBits(t, name+" selected values", vals, want)
	if vt.R != k || vt.C != n {
		t.Fatalf("%s n=%d: vectors are %dx%d, want %dx%d", name, n, vt.R, vt.C, k, n)
	}
	anorm := math.Max(math.Abs(allVals[0]), math.Abs(allVals[n-1]))
	if anorm == 0 {
		anorm = 1
	}
	tol := 10 * float64(n) * eps64
	for c := 0; c < k; c++ {
		u := vt.Row(c)
		au := a.MulVec(u)
		r := 0.0
		for i := range au {
			d := au[i] - vals[c]*u[i]
			r += d * d
		}
		if r = math.Sqrt(r); r > tol*anorm {
			t.Fatalf("%s n=%d k=%d: ‖Au−λu‖ = %.3g for λ[%d] = %g, bound %.3g", name, n, k, r, c, vals[c], tol*anorm)
		}
		if jm := idamax(u); u[jm] < 0 {
			t.Fatalf("%s n=%d: vector %d has its largest entry %g negative", name, n, c, u[jm])
		}
		for c2 := 0; c2 <= c; c2++ {
			dot := 0.0
			for i, v := range vt.Row(c2) {
				dot += v * u[i]
			}
			if c2 == c {
				dot--
			}
			if math.Abs(dot) > tol {
				t.Fatalf("%s n=%d k=%d: (UᵀU−I)[%d,%d] = %.3g, bound %.3g", name, n, k, c2, c, dot, tol)
			}
		}
	}
	// Clusters: runs of selected eigenvalues closer than 1e-6·‖A‖. Each
	// computed eigenvector carries an error of about nε‖A‖/gap, so both
	// solvers' projectors onto a cluster agree within twice that.
	for lo := 0; lo < k; {
		hi := lo + 1
		for hi < k && vals[hi-1]-vals[hi] < 1e-6*anorm {
			hi++
		}
		gap := math.Inf(1)
		if lo > 0 {
			gap = vals[lo-1] - vals[lo]
		}
		if idx := n - 1 - hi; idx >= 0 {
			gap = math.Min(gap, vals[hi-1]-allVals[idx])
		}
		bound := 2 * tol * anorm / gap
		ref := func(c int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = allVecs.At(i, n-1-c)
			}
			return v
		}
		if hi == lo+1 {
			u, v := vt.Row(lo), ref(lo)
			dp, dm := 0.0, 0.0
			for i := range u {
				dp = math.Max(dp, math.Abs(u[i]-v[i]))
				dm = math.Max(dm, math.Abs(u[i]+v[i]))
			}
			if d := math.Min(dp, dm); d > bound {
				t.Fatalf("%s n=%d k=%d: isolated vector %d (λ %g, gap %.3g) off SymEig's by %.3g, bound %.3g",
					name, n, k, lo, vals[lo], gap, d, bound)
			}
		} else {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					pu, pv := 0.0, 0.0
					for c := lo; c < hi; c++ {
						pu += vt.At(c, i) * vt.At(c, j)
						pv += allVecs.At(i, n-1-c) * allVecs.At(j, n-1-c)
					}
					if d := math.Abs(pu - pv); d > bound {
						t.Fatalf("%s n=%d k=%d: cluster %d..%d projector (%d,%d) off SymEig's by %.3g, bound %.3g",
							name, n, k, lo, hi-1, i, j, d, bound)
					}
				}
			}
		}
		lo = hi
	}
}

// TestSymEigAboveOracle is the selected-pair property test: eigenvalues
// bit-identical to SymEig's and eigenvectors within the residual,
// orthogonality and subspace bounds, at k = 0, k = n and in between,
// on every fixture (n = 1 included).
func TestSymEigAboveOracle(t *testing.T) {
	for _, tc := range selCases() {
		vals, err := SymEigValues(tc.a.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range selCutoffs(vals) {
			VerifySelected(t, tc.name, tc.a, cut)
		}
	}
}

// TestSymEigAboveEmpty covers the 0×0 matrix and a non-square input.
func TestSymEigAboveEmpty(t *testing.T) {
	vals, vt, fb, err := SymEigAbove(New(0, 0), 0)
	if err != nil || fb != nil || len(vals) != 0 || vt.R != 0 {
		t.Fatalf("0×0: vals %v, vt %dx%d, fallback %v, err %v", vals, vt.R, vt.C, fb, err)
	}
	if _, _, _, err := SymEigAbove(New(2, 3), 0); err == nil {
		t.Fatal("non-square input accepted")
	}
}

// TestSymEigAboveDeterministic: the selected path draws on no random
// source, so two solves of one matrix return the same bits.
func TestSymEigAboveDeterministic(t *testing.T) {
	a := withSpectrum(rand.New(rand.NewSource(3102)), gradedSpectrum(64, 8))
	v1, u1, _, err1 := SymEigAbove(a.Clone(), 1e-4)
	v2, u2, _, err2 := SymEigAbove(a.Clone(), 1e-4)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	requireSameBits(t, "values", v1, v2)
	requireSameBits(t, "vectors", u1.Data, u2.Data)
}
