package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBuilderSumsDuplicates(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2)
	b.Add(2, 1, -4)
	b.Add(2, 1, 4) // cancels to zero and must be dropped
	b.Add(1, 2, 5)
	a := b.Build()
	if got := a.At(0, 0); got != 3 {
		t.Errorf("At(0,0) = %v, want 3", got)
	}
	if got := a.At(2, 1); got != 0 {
		t.Errorf("At(2,1) = %v, want 0 (cancelled)", got)
	}
	if got := a.At(1, 2); got != 5 {
		t.Errorf("At(1,2) = %v, want 5", got)
	}
	if a.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", a.NNZ())
	}
}

func TestBuilderAddSym(t *testing.T) {
	b := NewBuilder(2, 2)
	b.AddSym(0, 1, -3)
	b.AddSym(1, 1, 7)
	a := b.Build()
	if a.At(0, 1) != -3 || a.At(1, 0) != -3 {
		t.Errorf("off-diagonals = %v, %v, want -3, -3", a.At(0, 1), a.At(1, 0))
	}
	if a.At(1, 1) != 7 {
		t.Errorf("diagonal = %v, want 7 (AddSym must not double the diagonal)", a.At(1, 1))
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range entry")
		}
	}()
	NewBuilder(2, 2).Add(2, 0, 1)
}

func randomCSR(rng *rand.Rand, rows, cols, nnz int) *CSR {
	b := NewBuilder(rows, cols)
	for k := 0; k < nnz; k++ {
		b.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
	}
	return b.Build()
}

func randomSymCSR(rng *rand.Rand, n, halfNNZ int) *CSR {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2+rng.Float64())
	}
	for k := 0; k < halfNNZ; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			b.AddSym(i, j, rng.NormFloat64())
		}
	}
	return b.Build()
}

func TestRowsSortedNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomCSR(rng, 20, 17, 200)
	for i := 0; i < a.Rows; i++ {
		cols, _ := a.Row(i)
		for k := 1; k < len(cols); k++ {
			if cols[k] <= cols[k-1] {
				t.Fatalf("row %d not strictly sorted: %v", i, cols)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomCSR(rng, 15, 9, 60)
	tt := a.Transpose().Transpose()
	if !reflect.DeepEqual(a.Dense(), tt.Dense()) {
		t.Fatal("transpose of transpose differs from original")
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomCSR(rng, 12, 8, 50)
	d := a.Dense()
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, 12)
	a.MulVec(got, x)
	for i := 0; i < 12; i++ {
		want := 0.0
		for j := 0; j < 8; j++ {
			want += d[i][j] * x[j]
		}
		if math.Abs(got[i]-want) > 1e-12 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestAddMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomCSR(rng, 10, 10, 40)
	b := randomCSR(rng, 10, 10, 40)
	c := Add(2, a, -1, b)
	da, db, dc := a.Dense(), b.Dense(), c.Dense()
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			want := 2*da[i][j] - db[i][j]
			if math.Abs(dc[i][j]-want) > 1e-12 {
				t.Fatalf("Add(%d,%d) = %v, want %v", i, j, dc[i][j], want)
			}
		}
	}
}

func TestAddDiagonal(t *testing.T) {
	// A matrix with a structurally missing diagonal entry: AddDiagonal
	// must materialize it, not just scale existing storage.
	b := NewBuilder(3, 3)
	b.Add(0, 0, 2)
	b.AddSym(0, 2, -1)
	// (1,1) intentionally absent.
	a := b.Build()
	g := AddDiagonal(a, 0.5)
	da, dg := a.Dense(), g.Dense()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := da[i][j]
			if i == j {
				want += 0.5
			}
			if math.Abs(dg[i][j]-want) > 1e-15 {
				t.Fatalf("AddDiagonal(%d,%d) = %v, want %v", i, j, dg[i][j], want)
			}
		}
	}
	if g.At(1, 1) != 0.5 {
		t.Fatalf("missing diagonal entry not materialized: %v", g.At(1, 1))
	}
}

func TestPermuteSym(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomSymCSR(rng, 9, 20)
	perm := rng.Perm(9)
	b := a.PermuteSym(perm)
	da, db := a.Dense(), b.Dense()
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			if db[i][j] != da[perm[i]][perm[j]] {
				t.Fatalf("PermuteSym(%d,%d) = %v, want %v", i, j, db[i][j], da[perm[i]][perm[j]])
			}
		}
	}
	if !reflect.DeepEqual(db, b.Transpose().Dense()) {
		t.Fatal("symmetric permutation of a symmetric matrix must stay symmetric")
	}
}

func TestPermuteRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomCSR(rng, 6, 4, 15)
	perm := rng.Perm(6)
	b := a.PermuteRows(perm)
	da, db := a.Dense(), b.Dense()
	for i := 0; i < 6; i++ {
		if !reflect.DeepEqual(db[i], da[perm[i]]) {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestCSCRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomCSR(rng, 11, 13, 70)
	at := a.Transpose() // rows of Aᵀ are the columns of A
	back := (&CSC{Rows: a.Rows, Cols: a.Cols, ColPtr: at.RowPtr, Row: at.Col, Val: at.Val}).ToCSR()
	if !reflect.DeepEqual(a.Dense(), back.Dense()) {
		t.Fatal("CSR -> CSC -> CSR round trip changed the matrix")
	}
}

func TestTriangleExtraction(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randomSymCSR(rng, 10, 25)
	up := a.UpperCSC()
	d := a.Dense()
	for j := 0; j < 10; j++ {
		for p := up.ColPtr[j]; p < up.ColPtr[j+1]; p++ {
			i := up.Row[p]
			if i > j {
				t.Fatalf("UpperCSC has subdiagonal entry (%d,%d)", i, j)
			}
			if up.Val[p] != d[i][j] {
				t.Fatalf("UpperCSC value (%d,%d) = %v, want %v", i, j, up.Val[p], d[i][j])
			}
		}
	}
	// The upper triangle of a symmetric full pattern holds half the
	// off-diagonal entries plus the diagonal.
	diag := 0
	for i := 0; i < 10; i++ {
		if a.At(i, i) != 0 {
			diag++
		}
	}
	if 2*up.NNZ() != a.NNZ()+diag {
		t.Fatalf("upper triangle NNZ %d inconsistent with full %d (+%d diag)", up.NNZ(), a.NNZ(), diag)
	}
}

func TestTriangularSolves(t *testing.T) {
	// Build a well-conditioned lower-triangular matrix and verify both
	// solves against a known solution.
	rng := rand.New(rand.NewSource(11))
	n := 25
	b := NewBuilder(n, n)
	for j := 0; j < n; j++ {
		b.Add(j, j, 2+rng.Float64())
		for k := 0; k < 3; k++ {
			i := j + 1 + rng.Intn(n-j)
			if i < n {
				b.Add(i, j, 0.3*rng.NormFloat64())
			}
		}
	}
	lcsr := b.Build()
	lt := lcsr.Transpose() // rows of Lᵀ are the columns of L
	l := &CSC{Rows: n, Cols: n, ColPtr: lt.RowPtr, Row: lt.Col, Val: lt.Val}
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	// Forward solve: rhs = L * want.
	rhs := make([]float64, n)
	lcsr.MulVec(rhs, want)
	LowerSolveCSC(l, rhs)
	for i := range want {
		if math.Abs(rhs[i]-want[i]) > 1e-10 {
			t.Fatalf("LowerSolveCSC[%d] = %v, want %v", i, rhs[i], want[i])
		}
	}
	// Transposed solve: rhs = Lᵀ * want.
	rhs2 := make([]float64, n)
	lt.MulVec(rhs2, want)
	LowerTransposeSolveCSC(l, rhs2)
	for i := range want {
		if math.Abs(rhs2[i]-want[i]) > 1e-10 {
			t.Fatalf("LowerTransposeSolveCSC[%d] = %v, want %v", i, rhs2[i], want[i])
		}
	}
}

func TestInversePerm(t *testing.T) {
	perm := []int{2, 0, 3, 1}
	inv := InversePerm(perm)
	for i, p := range perm {
		if inv[p] != i {
			t.Fatalf("inv[%d] = %d, want %d", p, inv[p], i)
		}
	}
}

func TestInversePermRejectsInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicated permutation entry")
		}
	}()
	InversePerm([]int{0, 0, 1})
}

func TestPatternUnionKeepsZeros(t *testing.T) {
	ab := NewBuilder(2, 2)
	ab.Add(0, 0, 1)
	ab.Add(1, 1, 2)
	bb := NewBuilder(2, 2)
	bb.Add(0, 0, -1)
	bb.Add(0, 1, 3)
	u := PatternUnion(ab.Build(), bb.Build())
	// (0,0) sums to zero but the position must stay in the pattern.
	if u.RowPtr[1]-u.RowPtr[0] != 2 {
		t.Fatalf("row 0 of union has %d entries, want 2", u.RowPtr[1]-u.RowPtr[0])
	}
	if u.At(0, 1) != 3 || u.At(1, 1) != 2 {
		t.Fatal("union values wrong")
	}
}

// Property: yᵀ(A x) = (Aᵀ y)ᵀx, i.e. MulVec through Transpose is the
// true adjoint of MulVec with respect to the Euclidean inner product.
func TestAdjointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(12)
		cols := 1 + r.Intn(12)
		a := randomCSR(r, rows, cols, rows*cols/2+1)
		x := make([]float64, cols)
		y := make([]float64, rows)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for i := range y {
			y[i] = r.NormFloat64()
		}
		ax := make([]float64, rows)
		a.MulVec(ax, x)
		aty := make([]float64, cols)
		a.Transpose().MulVec(aty, y)
		lhs := Dot(ax, y)
		rhs := Dot(x, aty)
		scale := math.Max(math.Abs(lhs), 1)
		return math.Abs(lhs-rhs) <= 1e-10*scale
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: PermuteSym preserves the sorted multiset of eigenvalue-free
// invariants we can check cheaply: trace and Frobenius norm.
func TestPermuteSymInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		a := randomSymCSR(r, n, 2*n)
		perm := r.Perm(n)
		b := a.PermuteSym(perm)
		traceA, traceB, frobA, frobB := 0.0, 0.0, 0.0, 0.0
		for i := 0; i < n; i++ {
			traceA += a.At(i, i)
			traceB += b.At(i, i)
		}
		for _, v := range a.Val {
			frobA += v * v
		}
		for _, v := range b.Val {
			frobB += v * v
		}
		return math.Abs(traceA-traceB) < 1e-12 && math.Abs(frobA-frobB) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
