package chol

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/order"
	"repro/internal/sparse"
)

// randomSPD builds a random sparse symmetric diagonally dominant (hence
// SPD) matrix, the structural class of conductance matrices.
func randomSPD(rng *rand.Rand, n, extra int) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	diag := make([]float64, n)
	type edge struct {
		i, j int
		v    float64
	}
	var edges []edge
	for k := 0; k < extra; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		v := -rng.Float64()
		edges = append(edges, edge{i, j, v})
		diag[i] += -v
		diag[j] += -v
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, diag[i]+0.5+rng.Float64())
	}
	for _, e := range edges {
		b.AddSym(e.i, e.j, e.v)
	}
	return b.Build()
}

func factorAndCheck(t *testing.T, a *sparse.CSR, method order.Method) {
	t.Helper()
	sym, ap := order.Analyze(a, method)
	f, err := Factorize(ap, sym)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	// Check L Lᵀ == Ap entrywise via dense reconstruction.
	n := a.Rows
	l := f.L.ToCSR().Dense()
	want := ap.Dense()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := 0.0
			for k := 0; k <= i && k <= j; k++ {
				got += l[i][k] * l[j][k]
			}
			if math.Abs(got-want[i][j]) > 1e-9*(1+math.Abs(want[i][j])) {
				t.Fatalf("LLᵀ(%d,%d) = %v, want %v", i, j, got, want[i][j])
			}
		}
	}
	// Factor nnz must match symbolic prediction exactly.
	if f.NNZ() != sym.LNNZ() {
		t.Fatalf("factor nnz %d != symbolic %d", f.NNZ(), sym.LNNZ())
	}
	// Solve check: A x = b round trip on the permuted system.
	x := make([]float64, n)
	for i := range x {
		x[i] = rng2.NormFloat64()
	}
	b := make([]float64, n)
	ap.MulVec(b, x)
	f.Solve(b)
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-8*(1+math.Abs(x[i])) {
			t.Fatalf("Solve[%d] = %v, want %v", i, b[i], x[i])
		}
	}
}

var rng2 = rand.New(rand.NewSource(99))

func TestFactorizeRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		a := randomSPD(rng, n, 3*n)
		for _, m := range []order.Method{order.Natural, order.RCM, order.MinimumDegree} {
			factorAndCheck(t, a, m)
		}
	}
}

func TestFactorizeDiagonal(t *testing.T) {
	b := sparse.NewBuilder(4, 4)
	for i := 0; i < 4; i++ {
		b.Add(i, i, float64(i+1))
	}
	a := b.Build()
	sym, _ := order.Analyze(a, order.Natural)
	f, err := Factorize(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		want := math.Sqrt(float64(i + 1))
		if got := f.L.Val[f.L.ColPtr[i]]; math.Abs(got-want) > 1e-15 {
			t.Errorf("L[%d][%d] = %v, want %v", i, i, got, want)
		}
	}
}

func TestFactorizeRejectsIndefinite(t *testing.T) {
	// A singular conductance matrix: node 1 has no path to ground (rows
	// sum to zero exactly in the 2x2 floating block).
	b := sparse.NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	b.AddSym(0, 1, -1)
	a := b.Build()
	sym, _ := order.Analyze(a, order.Natural)
	_, err := Factorize(a, sym)
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestLSolveLTSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := randomSPD(rng, 15, 40)
	sym, ap := order.Analyze(a, order.MinimumDegree)
	f, err := Factorize(ap, sym)
	if err != nil {
		t.Fatal(err)
	}
	lcsr := f.L.ToCSR()
	x := make([]float64, 15)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	// L y = b where b = L x.
	b := make([]float64, 15)
	lcsr.MulVec(b, x)
	f.LSolve(b)
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-10 {
			t.Fatalf("LSolve[%d] = %v, want %v", i, b[i], x[i])
		}
	}
	// Lᵀ y = b where b = Lᵀ x.
	lt := lcsr.Transpose()
	lt.MulVec(b, x)
	f.LTSolve(b)
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-10 {
			t.Fatalf("LTSolve[%d] = %v, want %v", i, b[i], x[i])
		}
	}
}

// denseComplexSolve solves A x = b by Gaussian elimination with partial
// pivoting; the reference for the sparse complex LDLᵀ.
func denseComplexSolve(a [][]complex128, b []complex128) []complex128 {
	n := len(b)
	m := make([][]complex128, n)
	for i := range m {
		m[i] = append([]complex128(nil), a[i]...)
		m[i] = append(m[i], b[i])
	}
	for k := 0; k < n; k++ {
		piv := k
		for i := k + 1; i < n; i++ {
			if cmplx.Abs(m[i][k]) > cmplx.Abs(m[piv][k]) {
				piv = i
			}
		}
		m[k], m[piv] = m[piv], m[k]
		for i := k + 1; i < n; i++ {
			f := m[i][k] / m[k][k]
			for j := k; j <= n; j++ {
				m[i][j] -= f * m[k][j]
			}
		}
	}
	x := make([]complex128, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x
}

func TestComplexLDLTMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(20)
		d := randomSPD(rng, n, 2*n)
		e := randomSPD(rng, n, n)
		e.Scale(1e-2) // susceptance-like
		s := complex(0, 1e2*rng.Float64())
		pattern := sparse.PatternUnion(d, e)
		sym, pat := order.Analyze(pattern, order.MinimumDegree)
		dp := d.PermuteSym(sym.Perm)
		ep := e.PermuteSym(sym.Perm)
		// Values aligned with pat's storage: re-extract by position.
		evalAt := func(p int) complex128 {
			// pat row/col of entry p.
			i := rowOf(pat, p)
			j := pat.Col[p]
			return complex(dp.At(i, j), 0) + s*complex(ep.At(i, j), 0)
		}
		f, err := factorizeComplexUpLooking(pat, evalAt, sym)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		// Dense reference on the permuted matrix.
		ad := make([][]complex128, n)
		ddense, edense := dp.Dense(), ep.Dense()
		for i := range ad {
			ad[i] = make([]complex128, n)
			for j := 0; j < n; j++ {
				ad[i][j] = complex(ddense[i][j], 0) + s*complex(edense[i][j], 0)
			}
		}
		want := denseComplexSolve(ad, b)
		got := append([]complex128(nil), b...)
		if err := f.Solve(got); err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-7*(1+cmplx.Abs(want[i])) {
				t.Fatalf("trial %d: Solve[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestComplexSolveDimensionMismatch(t *testing.T) {
	b := sparse.NewBuilder(3, 3)
	for i := 0; i < 3; i++ {
		b.Add(i, i, float64(i+2))
	}
	pat := b.Build()
	sym, _ := order.Analyze(pat, order.Natural)
	f, err := factorizeComplexUpLooking(pat, func(p int) complex128 {
		return complex(pat.Val[p], 0)
	}, sym)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Solve(make([]complex128, 2)); err == nil {
		t.Fatal("Solve with short rhs must return an error, not succeed")
	}
	if err := f.Solve(make([]complex128, 3)); err != nil {
		t.Fatalf("Solve with correct rhs length: %v", err)
	}
}

// rowOf finds the row of storage position p by scanning RowPtr; fine for
// tests.
func rowOf(a *sparse.CSR, p int) int {
	for i := 0; i < a.Rows; i++ {
		if p >= a.RowPtr[i] && p < a.RowPtr[i+1] {
			return i
		}
	}
	panic("position out of range")
}

func TestFactorBytesPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	a := randomSPD(rng, 10, 20)
	sym, _ := order.Analyze(a, order.Natural)
	f, err := Factorize(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	if f.Bytes() <= 0 {
		t.Error("Bytes() must be positive")
	}
}
