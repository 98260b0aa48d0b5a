package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// csrBitsEqual compares two matrices exactly, values by Float64bits —
// the equality the parallel-assembly determinism contract promises.
func csrBitsEqual(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := 0; i <= a.Rows; i++ {
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

// randomBuilder fills a builder with duplicate-heavy triplets, including
// pairs that cancel to exactly zero.
func randomBuilder(rng *rand.Rand, rows, cols, nnz int) *Builder {
	b := NewBuilder(rows, cols)
	for k := 0; k < nnz; k++ {
		i, j := rng.Intn(rows), rng.Intn(cols)
		v := rng.NormFloat64()
		b.Add(i, j, v)
		switch rng.Intn(4) {
		case 0:
			b.Add(i, j, rng.NormFloat64()) // duplicate, summed
		case 1:
			b.Add(i, j, -v) // cancels the first entry exactly
		}
	}
	return b
}

// checkBuildAcrossGOMAXPROCS builds b at GOMAXPROCS 1, 2, 4 and 8 and
// fails unless every build is the 1-proc matrix bit for bit and that
// matrix holds the triplet sums of a map-based oracle, sorted, with
// zeros dropped.
func checkBuildAcrossGOMAXPROCS(t *testing.T, b *Builder) {
	t.Helper()
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	serial := b.Build()
	for _, procs := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		if !csrBitsEqual(serial, b.Build()) {
			t.Fatalf("%d rows: Build at GOMAXPROCS=%d differs from GOMAXPROCS=1", b.rows, procs)
		}
	}
	sums := map[[2]int]float64{}
	for k := range b.v {
		sums[[2]int{b.r[k], b.c[k]}] += b.v[k]
	}
	for ij, v := range sums {
		if got := serial.At(ij[0], ij[1]); math.Abs(got-v) > 1e-12*(1+math.Abs(v)) {
			t.Fatalf("%d rows: entry %v = %v, oracle %v", b.rows, ij, got, v)
		}
	}
	for i := 0; i < serial.Rows; i++ {
		for p := serial.RowPtr[i]; p < serial.RowPtr[i+1]; p++ {
			if _, ok := sums[[2]int{i, serial.Col[p]}]; !ok || serial.Val[p] == 0 {
				t.Fatalf("row %d stores entry (%d,%d) = %v outside the triplets", i, i, serial.Col[p], serial.Val[p])
			}
			if p > serial.RowPtr[i] && serial.Col[p] <= serial.Col[p-1] {
				t.Fatalf("row %d columns not strictly increasing at %d", i, p)
			}
		}
	}
}

// TestBuildParMatchesBuild pins Build's pool path (two row chunks and
// up): every GOMAXPROCS gives the serial matrix bit for bit.
func TestBuildParMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		rows := 2*buildRowChunk + rng.Intn(3*buildRowChunk)
		checkBuildAcrossGOMAXPROCS(t, randomBuilder(rng, rows, rows, 4*rows))
	}
}

// TestBuildParSmallFallsBackToBuild pins Build below two row chunks,
// where it stays on the calling goroutine.
func TestBuildParSmallFallsBackToBuild(t *testing.T) {
	b := NewBuilder(5, 5)
	b.AddSym(0, 1, 2)
	b.Add(3, 3, 1)
	checkBuildAcrossGOMAXPROCS(t, b)
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 4; trial++ {
		rows := 1 + rng.Intn(2*buildRowChunk)
		checkBuildAcrossGOMAXPROCS(t, randomBuilder(rng, rows, rows, 4*rows))
	}
}

func TestReserveAndAppend(t *testing.T) {
	b := NewBuilder(4, 4)
	b.Reserve(8)
	b.Add(0, 0, 1)
	b.Append([]int{1, 2, 1}, []int{1, 3, 1}, []float64{2, -5, 3})
	a := b.Build()
	if a.At(0, 0) != 1 || a.At(1, 1) != 5 || a.At(2, 3) != -5 {
		t.Fatalf("unexpected entries after Append: %v %v %v", a.At(0, 0), a.At(1, 1), a.At(2, 3))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Append with out-of-range entry did not panic")
		}
	}()
	b.Append([]int{9}, []int{0}, []float64{1})
}

// builderPermuteSym is the historical triplet-rebuild implementation,
// kept as the oracle for the direct-construction PermuteSym.
func builderPermuteSym(a *CSR, perm []int) *CSR {
	inv := InversePerm(perm)
	b := NewBuilder(a.Rows, a.Cols)
	for iOld := 0; iOld < a.Rows; iOld++ {
		iNew := inv[iOld]
		for p := a.RowPtr[iOld]; p < a.RowPtr[iOld+1]; p++ {
			b.Add(iNew, inv[a.Col[p]], a.Val[p])
		}
	}
	return b.Build()
}

func TestPermuteSymMatchesBuilderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		n := 1 + rng.Intn(200)
		a := randomCSR(rng, n, n, 3*n)
		// Inject an explicit zero so the zero-dropping path is exercised.
		if a.NNZ() > 0 {
			a.Val[rng.Intn(a.NNZ())] = 0
		}
		perm := rng.Perm(n)
		want := builderPermuteSym(a, perm)
		if !csrBitsEqual(want, a.PermuteSym(perm)) {
			t.Fatalf("trial %d: PermuteSym differs from builder oracle", trial)
		}
		ident := IdentityPerm(n)
		if !csrBitsEqual(builderPermuteSym(a, ident), a.PermuteSym(ident)) {
			t.Fatalf("trial %d: identity PermuteSym differs from builder oracle", trial)
		}
	}
}

// TestSortAllocsPerChunk pins the per-row column sort of PermuteSym and
// Build to one rowSeg per row chunk: on a 100×100 lattice whose rows all
// need sorting, both allocate O(rows/buildRowChunk) objects, not one per
// row (a rowSeg value boxed into sort.Interface costs one per row).
func TestSortAllocsPerChunk(t *testing.T) {
	const nx = 100
	n := nx * nx
	b := NewBuilder(n, n)
	// Off-diagonals first, diagonal last, so every row's triplets arrive
	// out of column order.
	for y := 0; y < nx; y++ {
		for x := 0; x < nx; x++ {
			i := y*nx + x
			if x+1 < nx {
				b.AddSym(i, i+1, -1)
			}
			if y+1 < nx {
				b.AddSym(i, i+nx, -1)
			}
		}
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, 4)
	}
	a := b.Build()
	// Reversal maps ascending columns to descending ones, so every row
	// of the permuted matrix must be re-sorted.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = n - 1 - i
	}
	chunks := (n + buildRowChunk - 1) / buildRowChunk
	limit := float64(4*chunks + 16)
	if got := testing.AllocsPerRun(5, func() { a.PermuteSym(perm) }); got > limit {
		t.Fatalf("PermuteSym of %d rows: %.0f allocations, want at most %.0f", n, got, limit)
	}
	if got := testing.AllocsPerRun(5, func() { b.Build() }); got > limit {
		t.Fatalf("Build of %d rows: %.0f allocations, want at most %.0f", n, got, limit)
	}
}
