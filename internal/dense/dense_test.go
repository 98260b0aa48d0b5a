package dense

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSym(rng *rand.Rand, n int) *Mat {
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func randomMat(rng *rand.Rand, r, c int) *Mat {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMulAgainstNaive(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(41))
	a := randomMat(rng, 5, 7)
	b := randomMat(rng, 7, 4)
	c := Mul(a, b)
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			for k := 0; k < 7; k++ {
				want += a.At(i, k) * b.At(k, j)
			}
			if math.Abs(c.At(i, j)-want) > 1e-12 {
				t.Fatalf("Mul(%d,%d) = %v, want %v", i, j, c.At(i, j), want)
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	a := randomMat(rng, 3, 6)
	at := a.T()
	for i := 0; i < 3; i++ {
		for j := 0; j < 6; j++ {
			if at.At(j, i) != a.At(i, j) {
				t.Fatal("transpose mismatch")
			}
		}
	}
}

func TestSymEigReconstruction(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(25)
		a := randomSym(rng, n)
		orig := a.Clone()
		vals, vecs, err := SymEig(a, true)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Ascending order.
		for i := 1; i < n; i++ {
			if vals[i] < vals[i-1] {
				t.Fatalf("eigenvalues not ascending: %v", vals)
			}
		}
		// Orthonormality of eigenvectors.
		vtv := Mul(vecs.T(), vecs)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(vtv.At(i, j)-want) > 1e-9 {
					t.Fatalf("VᵀV(%d,%d) = %v, want %v", i, j, vtv.At(i, j), want)
				}
			}
		}
		// Reconstruction A = V Λ Vᵀ.
		lam := New(n, n)
		for i := 0; i < n; i++ {
			lam.Set(i, i, vals[i])
		}
		rec := Mul(Mul(vecs, lam), vecs.T())
		scale := orig.MaxAbs() + 1
		for i := range rec.Data {
			if math.Abs(rec.Data[i]-orig.Data[i]) > 1e-9*scale {
				t.Fatalf("trial %d: reconstruction error %v at flat index %d", trial, rec.Data[i]-orig.Data[i], i)
			}
		}
	}
}

func TestSymEigKnownValues(t *testing.T) {
	t.Parallel()
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := NewFromRows([][]float64{{2, 1}, {1, 2}})
	vals, _, err := SymEig(a, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-12 || math.Abs(vals[1]-3) > 1e-12 {
		t.Fatalf("vals = %v, want [1 3]", vals)
	}
}

func TestSymEigRepeatedEigenvalues(t *testing.T) {
	t.Parallel()
	// Identity-like with a repeated eigenvalue block.
	a := NewFromRows([][]float64{
		{2, 0, 0},
		{0, 2, 0},
		{0, 0, 5},
	})
	vals, vecs, err := SymEig(a, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 2, 5}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
	if vecs == nil {
		t.Fatal("expected eigenvectors")
	}
}

func TestTridiagEig(t *testing.T) {
	t.Parallel()
	// T = tridiag(-1, 2, -1) of size n has eigenvalues
	// 2 - 2 cos(kπ/(n+1)).
	n := 12
	alpha := make([]float64, n)
	beta := make([]float64, n-1)
	for i := range alpha {
		alpha[i] = 2
	}
	for i := range beta {
		beta[i] = -1
	}
	vals, z, err := TridiagEig(alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
		if math.Abs(vals[k-1]-want) > 1e-10 {
			t.Fatalf("eigenvalue %d = %v, want %v", k, vals[k-1], want)
		}
	}
	// Residual check: T z_i = λ_i z_i.
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			tz := alpha[i] * z.At(i, j)
			if i > 0 {
				tz += beta[i-1] * z.At(i-1, j)
			}
			if i < n-1 {
				tz += beta[i] * z.At(i+1, j)
			}
			if math.Abs(tz-vals[j]*z.At(i, j)) > 1e-9 {
				t.Fatalf("residual at (%d,%d)", i, j)
			}
		}
	}
}

func TestTridiagEigSize1(t *testing.T) {
	t.Parallel()
	vals, z, err := TridiagEig([]float64{7}, nil)
	if err != nil || len(vals) != 1 || vals[0] != 7 || z.At(0, 0) != 1 {
		t.Fatalf("size-1 tridiag: vals=%v z=%v err=%v", vals, z, err)
	}
}

func TestCholeskyDense(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(12)
		// SPD via BᵀB + I.
		b := randomMat(rng, n, n)
		a := Mul(b.T(), b)
		for i := 0; i < n; i++ {
			a.Add(i, i, 1)
		}
		orig := a.Clone()
		if err := Cholesky(a); err != nil {
			t.Fatal(err)
		}
		rec := Mul(a, a.T())
		for i := range rec.Data {
			if math.Abs(rec.Data[i]-orig.Data[i]) > 1e-9*(1+orig.MaxAbs()) {
				t.Fatalf("trial %d: LLᵀ reconstruction failed", trial)
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	t.Parallel()
	a := NewFromRows([][]float64{{1, 2}, {2, 1}})
	if err := Cholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestIsNonNegDefinite(t *testing.T) {
	t.Parallel()
	if !IsNonNegDefinite(NewFromRows([][]float64{{1, -1}, {-1, 1}}), 1e-12) {
		t.Error("singular NND matrix must pass")
	}
	if IsNonNegDefinite(NewFromRows([][]float64{{1, 2}, {2, 1}}), 1e-12) {
		t.Error("indefinite matrix must fail")
	}
}

func TestLUSolve(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(15)
		a := randomMat(rng, n, n)
		for i := 0; i < n; i++ {
			a.Add(i, i, 3) // keep well conditioned
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := a.MulVec(x)
		got, err := SolveLinear(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8*(1+math.Abs(x[i])) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], x[i])
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	t.Parallel()
	a := NewFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestCLUSolve(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(12)
		a := NewC(n, n)
		for i := range a.Data {
			a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for i := 0; i < n; i++ {
			a.Add(i, i, 4)
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		b := make([]complex128, n)
		for i := 0; i < n; i++ {
			s := complex(0, 0)
			for j := 0; j < n; j++ {
				s += a.At(i, j) * x[j]
			}
			b[i] = s
		}
		f, err := FactorCLU(a.Clone())
		if err != nil {
			t.Fatal(err)
		}
		f.Solve(b)
		for i := range x {
			if cmplx.Abs(b[i]-x[i]) > 1e-8*(1+cmplx.Abs(x[i])) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, b[i], x[i])
			}
		}
	}
}

// Property: eigenvalue sum equals trace and eigenvalue product sign
// matches determinant sign heuristics via Cholesky success for SPD.
func TestSymEigTraceProperty(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randomSym(rng, n)
		trace := 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
		}
		vals, _, err := SymEig(a, false)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		return math.Abs(sum-trace) <= 1e-8*(1+math.Abs(trace))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSymmetrize(t *testing.T) {
	t.Parallel()
	a := NewFromRows([][]float64{{1, 2}, {4, 3}})
	a.Symmetrize()
	if a.At(0, 1) != 3 || a.At(1, 0) != 3 {
		t.Fatalf("Symmetrize: got %v / %v, want 3 / 3", a.At(0, 1), a.At(1, 0))
	}
}

func TestScaleAddScaledMaxAbsDiff(t *testing.T) {
	t.Parallel()
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	a.Scale(2)
	if a.At(1, 1) != 8 {
		t.Fatal("Scale failed")
	}
	x := NewC(1, 2)
	y := NewC(1, 2)
	y.Set(0, 1, complex(3, 4))
	if d := MaxAbsDiff(x, y); math.Abs(d-5) > 1e-12 {
		t.Fatalf("MaxAbsDiff = %v, want 5", d)
	}
}

func TestSetSym(t *testing.T) {
	t.Parallel()
	m := New(4, 4)
	m.SetSym(1, 3, 2.5)
	m.SetSym(2, 2, -1)
	if m.At(1, 3) != 2.5 || m.At(3, 1) != 2.5 || m.At(2, 2) != -1 {
		t.Fatalf("SetSym wrote %v", m.Data)
	}
	// A matrix filled through SetSym is exactly symmetric.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Float64bits(m.At(i, j)) != math.Float64bits(m.At(j, i)) {
				t.Fatalf("SetSym left asymmetry at (%d,%d)", i, j)
			}
		}
	}
}
