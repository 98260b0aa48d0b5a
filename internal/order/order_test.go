package order

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

// denseSymbolicFill computes the exact Cholesky factor fill (nonzeros in L
// including the diagonal) of a symmetric pattern by brute-force
// right-looking symbolic elimination. It is the reference the fast
// etree-based counts are checked against.
func denseSymbolicFill(a *sparse.CSR) int {
	n := a.Rows
	b := make([][]bool, n)
	for i := range b {
		b[i] = make([]bool, n)
		cols, _ := a.Row(i)
		for _, j := range cols {
			b[i][j] = true
		}
	}
	lnz := 0
	rows := make([]int, 0, n)
	for j := 0; j < n; j++ {
		lnz++ // diagonal
		rows = rows[:0]
		for i := j + 1; i < n; i++ {
			if b[i][j] {
				rows = append(rows, i)
			}
		}
		lnz += len(rows)
		for x := 0; x < len(rows); x++ {
			for y := x + 1; y < len(rows); y++ {
				b[rows[x]][rows[y]] = true
				b[rows[y]][rows[x]] = true
			}
		}
	}
	return lnz
}

func pathGraph(n int) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i+1 < n {
			b.AddSym(i, i+1, -1)
		}
	}
	return b.Build()
}

func grid2D(nx, ny int) *sparse.CSR {
	n := nx * ny
	b := sparse.NewBuilder(n, n)
	id := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			b.Add(id(x, y), id(x, y), 4)
			if x+1 < nx {
				b.AddSym(id(x, y), id(x+1, y), -1)
			}
			if y+1 < ny {
				b.AddSym(id(x, y), id(x, y+1), -1)
			}
		}
	}
	return b.Build()
}

func randomSymPattern(rng *rand.Rand, n, extra int) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
	}
	for k := 0; k < extra; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			b.AddSym(i, j, 1)
		}
	}
	return b.Build()
}

// sameCSR reports whether a and b have the same shape, pattern and
// Float64bits-equal values.
func sameCSR(a, b *sparse.CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Col) != len(b.Col) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for p := range a.Col {
		if a.Col[p] != b.Col[p] || math.Float64bits(a.Val[p]) != math.Float64bits(b.Val[p]) {
			return false
		}
	}
	return true
}

func TestETreePath(t *testing.T) {
	// A tridiagonal matrix has the path 0->1->2->... as elimination tree.
	a := pathGraph(6)
	parent := ETree(a.UpperCSC())
	for i := 0; i < 5; i++ {
		if parent[i] != i+1 {
			t.Errorf("parent[%d] = %d, want %d", i, parent[i], i+1)
		}
	}
	if parent[5] != -1 {
		t.Errorf("root parent = %d, want -1", parent[5])
	}
}

func TestETreeArrow(t *testing.T) {
	// Arrowhead matrix: every node connected to the last; the tree is a
	// star with root n-1 only for the first column; elimination chains the
	// fill: parents become i+1 after fill-in of the dense trailing block.
	n := 5
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 4)
		if i < n-1 {
			b.AddSym(i, n-1, -1)
		}
	}
	parent := ETree(b.Build().UpperCSC())
	for i := 0; i < n-1; i++ {
		if parent[i] != n-1 {
			t.Errorf("parent[%d] = %d, want %d", i, parent[i], n-1)
		}
	}
}

func TestColCountsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(20)
		a := randomSymPattern(rng, n, 2*n)
		upper := a.UpperCSC()
		parent := ETree(upper)
		counts := ColCounts(upper, parent)
		total := 0
		for _, c := range counts {
			total += c
		}
		want := denseSymbolicFill(a)
		if total != want {
			t.Fatalf("trial %d: ColCounts total = %d, brute force = %d", trial, total, want)
		}
	}
}

func validPerm(perm []int, n int) bool {
	if len(perm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

func TestRCMIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		a := randomSymPattern(rng, n, 3*n)
		if !validPerm(ReverseCuthillMcKee(a), n) {
			t.Fatalf("trial %d: RCM did not return a permutation", trial)
		}
	}
}

func TestRCMReducesBandwidth(t *testing.T) {
	// Shuffle a path graph; RCM must restore a small bandwidth.
	n := 60
	rng := rand.New(rand.NewSource(23))
	shuffle := rng.Perm(n)
	a := pathGraph(n).PermuteSym(shuffle)
	perm := ReverseCuthillMcKee(a)
	ap := a.PermuteSym(perm)
	bw := 0
	for i := 0; i < n; i++ {
		cols, _ := ap.Row(i)
		for _, j := range cols {
			if d := i - j; d > bw {
				bw = d
			}
			if d := j - i; d > bw {
				bw = d
			}
		}
	}
	if bw > 2 {
		t.Errorf("RCM bandwidth on shuffled path = %d, want <= 2", bw)
	}
}

func TestMinDegreeIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(50)
		a := randomSymPattern(rng, n, 3*n)
		if !validPerm(MinDegree(a), n) {
			t.Fatalf("trial %d: MinDegree did not return a permutation", trial)
		}
	}
}

func TestMinDegreeHandlesDisconnected(t *testing.T) {
	// Two disjoint paths plus isolated vertices.
	n := 12
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
	}
	for i := 0; i < 4; i++ {
		b.AddSym(i, i+1, 1)
	}
	for i := 6; i < 9; i++ {
		b.AddSym(i, i+1, 1)
	}
	a := b.Build()
	if !validPerm(MinDegree(a), n) {
		t.Fatal("MinDegree failed on disconnected graph")
	}
}

func TestMinDegreeBeatsNaturalOnGrid(t *testing.T) {
	// Shuffled 2-D grid: minimum degree must produce substantially less
	// fill than the shuffled natural order, and no more than ~2x the
	// natural (banded) order of the unshuffled grid.
	g := grid2D(14, 14)
	rng := rand.New(rand.NewSource(25))
	shuffled := g.PermuteSym(rng.Perm(g.Rows))
	lnnz := func(a *sparse.CSR, m Method) int {
		sym, _ := Analyze(a, m)
		return sym.LNNZ()
	}
	fillMD := lnnz(shuffled, MinimumDegree)
	fillNat := lnnz(shuffled, Natural)
	if fillMD >= fillNat {
		t.Errorf("MD fill %d >= shuffled-natural fill %d", fillMD, fillNat)
	}
	banded := lnnz(g, Natural)
	if fillMD > 2*banded {
		t.Errorf("MD fill %d > 2x banded fill %d; ordering quality regression", fillMD, banded)
	}
}

func TestAnalyzeLNNZConsistent(t *testing.T) {
	// LNNZ from Analyze must equal brute-force fill of the permuted
	// pattern for every method, and the permuted matrix Analyze returns
	// must be exactly a.PermuteSym(sym.Perm).
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(16)
		a := randomSymPattern(rng, n, 2*n)
		for _, m := range []Method{Natural, RCM, MinimumDegree} {
			sym, ap := Analyze(a, m)
			if !sameCSR(ap, a.PermuteSym(sym.Perm)) {
				t.Fatalf("trial %d method %v: returned matrix differs from a.PermuteSym(sym.Perm)", trial, m)
			}
			want := denseSymbolicFill(ap)
			if sym.LNNZ() != want {
				t.Fatalf("trial %d method %v: LNNZ = %d, want %d", trial, m, sym.LNNZ(), want)
			}
		}
	}
}

func TestAnalyzePermProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		a := randomSymPattern(rng, n, 2*n)
		sym, _ := Analyze(a, MinimumDegree)
		if !validPerm(sym.Perm, n) {
			return false
		}
		// Inv must invert Perm, and LNNZ is at least n (diagonal).
		for i, p := range sym.Perm {
			if sym.Inv[p] != i {
				return false
			}
		}
		return sym.LNNZ() >= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMethodString(t *testing.T) {
	if MinimumDegree.String() != "minimum-degree" || RCM.String() != "rcm" || Natural.String() != "natural" {
		t.Error("Method.String mismatch")
	}
}
