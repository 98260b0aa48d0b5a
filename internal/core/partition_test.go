package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sparse"
)

// partitionRef is the historical construction of Partition, kept as the
// oracle for the one-pass split: permute G and C ports-first with
// PermuteSym, then cut the six blocks out with submatrixRef.
func partitionRef(g, c *sparse.CSR, ports []int) (*System, error) {
	total := g.Rows
	isPort := make([]bool, total)
	for _, p := range ports {
		isPort[p] = true
	}
	perm := append([]int(nil), ports...)
	for i := 0; i < total; i++ {
		if !isPort[i] {
			perm = append(perm, i)
		}
	}
	gp, cp := g.PermuteSym(perm), c.PermuteSym(perm)
	m, n := len(ports), total-len(ports)
	portIdx := make([]int, m)
	intIdx := make([]int, n)
	for i := range portIdx {
		portIdx[i] = i
	}
	for i := range intIdx {
		intIdx[i] = m + i
	}
	return NewSystem(
		submatrixRef(gp, portIdx, portIdx),
		submatrixRef(cp, portIdx, portIdx),
		submatrixRef(gp, intIdx, portIdx),
		submatrixRef(cp, intIdx, portIdx),
		submatrixRef(gp, intIdx, intIdx),
		submatrixRef(cp, intIdx, intIdx),
	)
}

// submatrixRef extracts the block with the given row and strictly
// increasing column index sets, dropping exact zeros: the retired
// sparse.Submatrix, serial.
func submatrixRef(a *sparse.CSR, rows, cols []int) *sparse.CSR {
	colMap := make([]int, a.Cols)
	for i := range colMap {
		colMap[i] = -1
	}
	for k, j := range cols {
		colMap[j] = k
	}
	out := &sparse.CSR{Rows: len(rows), Cols: len(cols), RowPtr: make([]int, len(rows)+1)}
	for k, i := range rows {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if j := colMap[a.Col[p]]; j >= 0 && a.Val[p] != 0 {
				out.Col = append(out.Col, j)
				out.Val = append(out.Val, a.Val[p])
			}
		}
		out.RowPtr[k+1] = len(out.Col)
	}
	return out
}

// requireSameCSR fails unless a and b have the same shape, pattern and
// Float64bits-equal values.
func requireSameCSR(t *testing.T, name string, got, want *sparse.CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if len(got.RowPtr) != len(want.RowPtr) || len(got.Col) != len(want.Col) || len(got.Val) != len(want.Val) {
		t.Fatalf("%s: storage lengths differ: rowptr %d/%d col %d/%d val %d/%d", name,
			len(got.RowPtr), len(want.RowPtr), len(got.Col), len(want.Col), len(got.Val), len(want.Val))
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", name, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for p := range want.Col {
		if got.Col[p] != want.Col[p] || math.Float64bits(got.Val[p]) != math.Float64bits(want.Val[p]) {
			t.Fatalf("%s: entry %d = (%d, %v), want (%d, %v)", name, p, got.Col[p], got.Val[p], want.Col[p], want.Val[p])
		}
	}
}

// TestPartitionMatchesRef requires Partition's one-pass split to give
// exactly the blocks of the permute-then-slice construction: ascending,
// unordered, single-port and empty port lists, on matrices spanning
// several row chunks, with stored exact zeros (+0 and −0) on and off the
// diagonal, at GOMAXPROCS 1 and 4. Not t.Parallel: it mutates the
// process-wide GOMAXPROCS.
func TestPartitionMatchesRef(t *testing.T) {
	const tot = 2600 // > 2 row chunks of splitRowChunk
	rng := rand.New(rand.NewSource(61))
	g, c := randomRC(rng, tot)
	ascending := []int{0, 5, 17, 300, 1024, 1025, 2047, 2599}
	unordered := []int{2599, 5, 1025, 0, 300, 2047, 17, 1024}
	// Couple every pair of those ports, and some to internal nodes, so
	// port rows and connection rows carry several port columns each and
	// the unordered list must sort them.
	extra := sparse.NewBuilder(tot, tot)
	for i, p := range ascending {
		for _, q := range ascending[i+1:] {
			extra.AddSym(p, q, -0.25)
		}
		extra.AddSym(p, 1+rng.Intn(tot-1), -0.5)
	}
	g = sparse.Add(1, g, 1, extra.Build())
	for _, x := range []*sparse.CSR{g, c} {
		for k := 0; k < 200; k++ {
			x.Val[rng.Intn(len(x.Val))] = 0
		}
		for k := 0; k < 20; k++ {
			x.Val[rng.Intn(len(x.Val))] = math.Copysign(0, -1)
		}
	}
	// Zero a whole port row's diagonal and one connection entry too.
	for p := g.RowPtr[5]; p < g.RowPtr[6]; p++ {
		if g.Col[p] == 5 || g.Col[p] == 2000 {
			g.Val[p] = 0
		}
	}
	random := rng.Perm(tot)[:40]
	cases := []struct {
		name  string
		ports []int
	}{
		{"ascending", ascending},
		{"unordered", unordered},
		{"random", random},
		{"single", []int{1500}},
		{"empty", nil},
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range cases {
			want, err := partitionRef(g, c, tc.ports)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Partition(g, c, tc.ports)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", tc.name, procs, err)
			}
			if got.M != want.M || got.N != want.N {
				t.Fatalf("%s: M, N = %d, %d, want %d, %d", tc.name, got.M, got.N, want.M, want.N)
			}
			for _, blk := range []struct {
				name      string
				got, want *sparse.CSR
			}{
				{"A", got.A, want.A}, {"B", got.B, want.B},
				{"Q", got.Q, want.Q}, {"R", got.R, want.R},
				{"D", got.D, want.D}, {"E", got.E, want.E},
			} {
				requireSameCSR(t, tc.name+" "+blk.name, blk.got, blk.want)
			}
		}
	}
}
