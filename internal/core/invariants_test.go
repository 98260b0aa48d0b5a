package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dense"
)

// These tests check the mathematical claims of Section 3 of the paper
// directly, independent of the reduction pipeline.

// genEig computes the generalized eigenvalues of det[E − λD] = 0 for SPD
// D and symmetric E, via the congruent standard problem L⁻¹EL⁻ᵀ.
func genEig(t *testing.T, e, d *dense.Mat) []float64 {
	t.Helper()
	n := d.R
	l := d.Clone()
	if err := dense.Cholesky(l); err != nil {
		t.Fatal(err)
	}
	// M = L⁻¹ E L⁻ᵀ computed column by column.
	m := dense.New(n, n)
	lu := l // lower triangular
	forward := func(x []float64) {
		for i := 0; i < n; i++ {
			s := x[i]
			for k := 0; k < i; k++ {
				s -= lu.At(i, k) * x[k]
			}
			x[i] = s / lu.At(i, i)
		}
	}
	backward := func(x []float64) {
		for i := n - 1; i >= 0; i-- {
			s := x[i]
			for k := i + 1; k < n; k++ {
				s -= lu.At(k, i) * x[k]
			}
			x[i] = s / lu.At(i, i)
		}
	}
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range col {
			col[i] = 0
		}
		col[j] = 1
		backward(col) // L⁻ᵀ e_j
		ec := e.MulVec(col)
		forward(ec) // L⁻¹ E L⁻ᵀ e_j
		for i := 0; i < n; i++ {
			m.Set(i, j, ec[i])
		}
	}
	m.Symmetrize()
	vals, _, err := dense.SymEig(m, false)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func randSPDMat(rng *rand.Rand, n int) *dense.Mat {
	b := dense.New(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := dense.Mul(b.T(), b)
	for i := 0; i < n; i++ {
		a.Add(i, i, 0.5)
	}
	return a
}

func randNNDMat(rng *rand.Rand, n, rank int) *dense.Mat {
	b := dense.New(rank, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	return dense.Mul(b.T(), b)
}

// TestCongruencePreservesGeneralizedEigenvalues is the fundamental
// property of Section 3: for square nonsingular V, the pencil
// (VᵀEV, VᵀDV) has the same eigenvalues as (E, D).
func TestCongruencePreservesGeneralizedEigenvalues(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(8)
		d := randSPDMat(rng, n)
		e := randNNDMat(rng, n, n)
		// Random nonsingular V (diagonally boosted).
		v := dense.New(n, n)
		for i := range v.Data {
			v.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			v.Add(i, i, 3)
		}
		dT := dense.Mul(dense.Mul(v.T(), d), v)
		eT := dense.Mul(dense.Mul(v.T(), e), v)
		dT.Symmetrize()
		eT.Symmetrize()
		want := genEig(t, e, d)
		got := genEig(t, eT, dT)
		sort.Float64s(want)
		sort.Float64s(got)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: eigenvalue %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestCongruencePreservesNND: VᵀWV is NND for NND W and ANY V, including
// rectangular and singular — the passivity-preservation mechanism.
func TestCongruencePreservesNND(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		k := 1 + rng.Intn(n) // fewer columns: a size-reducing transform
		w := randNNDMat(rng, n, 1+rng.Intn(n))
		v := dense.New(n, k)
		for i := range v.Data {
			v.Data[i] = rng.NormFloat64()
		}
		x := dense.Mul(dense.Mul(v.T(), w), v)
		x.Symmetrize()
		return dense.IsNonNegDefinite(x, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestReducedPolesAreGeneralizedEigenvalues: the λ retained by Reduce
// (with everything kept) equal the eigenvalues of the pencil (E, D) of
// the internal blocks — "the poles of Y(s) occur where (D+sE) is
// singular" (Section 2).
func TestReducedPolesAreGeneralizedEigenvalues(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 6; trial++ {
		sys := randomSystem(rng, 2, 4+rng.Intn(8))
		model, _, err := Reduce(sys, Options{FMax: keepAllFMax})
		if err != nil {
			t.Fatal(err)
		}
		d := dense.NewFromRows(sys.D.Dense())
		e := dense.NewFromRows(sys.E.Dense())
		pencil := genEig(t, e, d)
		sort.Sort(sort.Reverse(sort.Float64Slice(pencil)))
		// Reduce keeps eigenvalues above λc ~ 0; compare the retained set
		// against the top of the pencil spectrum.
		for i, lam := range model.Lambda {
			if math.Abs(lam-pencil[i]) > 1e-7*(1+pencil[i]) {
				t.Fatalf("trial %d: pole λ%d = %v, pencil %v", trial, i, lam, pencil[i])
			}
		}
	}
}

// TestMomentsMatchTaylor: A′ and B′ equal the zeroth and first Taylor
// coefficients of Y(s) at s = 0 (the moments the Padé methods also
// match), for the transformed-but-unreduced system.
func TestMomentsMatchTaylor(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(83))
	sys := randomSystem(rng, 3, 12)
	tr, _, err := Transform1(sys, Options{FMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	y0, err := sys.Y(0)
	if err != nil {
		t.Fatal(err)
	}
	h := 1e-7
	yh, err := sys.Y(complex(h, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if d := math.Abs(tr.APrime.At(i, j) - real(y0.At(i, j))); d > 1e-9*(1+math.Abs(real(y0.At(i, j)))) {
				t.Fatalf("A'(%d,%d) differs from Y(0) by %g", i, j, d)
			}
			fd := real(yh.At(i, j)-y0.At(i, j)) / h
			if d := math.Abs(tr.BPrime.At(i, j) - fd); d > 1e-4*(1+math.Abs(fd)) {
				t.Fatalf("B'(%d,%d) = %v, finite difference %v", i, j, tr.BPrime.At(i, j), fd)
			}
		}
	}
}

// TestRPrimeBlockAgainstDense verifies the blocked R′ columns against
// the dense formula R′ = L⁻¹(R − E D⁻¹ Q) (in the permuted internal
// space, checked via the projected admittance instead of raw columns):
// Y(s) = A′ + sB′ − s² R′ᵀ(I + sE′)⁻¹R′ must equal the exact Y(s), with
// the X = D⁻¹Q columns cached (the default budget) and recomputed per
// column (a negative budget).
func TestRPrimeBlockAgainstDense(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(84))
	sys := randomSystem(rng, 2, 10)
	for _, budget := range []int64{0, -1} {
		checkRPrimeBlock(t, sys, budget)
	}
}

func checkRPrimeBlock(t *testing.T, sys *System, budget int64) {
	t.Helper()
	tr, st, err := Transform1(sys, Options{FMax: 1, XCacheBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if st.XCached != (budget >= 0) {
		t.Fatalf("budget %d: XCached = %v", budget, st.XCached)
	}
	n, m := sys.N, sys.M
	// Dense E′ via the operator.
	op := tr.EOp()
	eP := dense.New(n, n)
	src := make([]float64, n)
	dst := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range src {
			src[i] = 0
		}
		src[j] = 1
		op.Apply(dst, src)
		for i := 0; i < n; i++ {
			eP.Set(i, j, dst[i])
		}
	}
	// R′ columns.
	rP := dense.New(n, m)
	for j, col := range tr.RPrimeBlock() {
		for i := 0; i < n; i++ {
			rP.Set(i, j, col[i])
		}
	}
	for _, sv := range []complex128{complex(0, 0.5), complex(0, 3)} {
		want, err := sys.Y(sv)
		if err != nil {
			t.Fatal(err)
		}
		// (I + sE′)⁻¹ R′ densely.
		a := dense.NewC(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := sv * complex(eP.At(i, j), 0)
				if i == j {
					v += 1
				}
				a.Set(i, j, v)
			}
		}
		f, err := dense.FactorCLU(a)
		if err != nil {
			t.Fatal(err)
		}
		got := dense.NewC(m, m)
		for j := 0; j < m; j++ {
			b := make([]complex128, n)
			for i := 0; i < n; i++ {
				b[i] = complex(rP.At(i, j), 0)
			}
			f.Solve(b)
			for i := 0; i < m; i++ {
				acc := complex(tr.APrime.At(i, j), 0) + sv*complex(tr.BPrime.At(i, j), 0)
				for k := 0; k < n; k++ {
					acc -= sv * sv * complex(rP.At(k, i), 0) * b[k]
				}
				got.Set(i, j, acc)
			}
		}
		if d := dense.MaxAbsDiff(got, want); d > 1e-8*(1+cNorm(want)) {
			t.Fatalf("budget %d, s=%v: transformed Y differs from exact by %g", budget, sv, d)
		}
	}
}
