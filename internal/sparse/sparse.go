// Package sparse provides the compressed sparse matrix types and kernels
// used throughout the PACT reduction flow: triplet assembly ("stamping"),
// compressed sparse row (CSR) storage with sorted column indices, matrix
// transposition and permutation, matrix-vector products, and extraction of
// triangular views for the factorization packages.
//
// All symmetric matrices in this repository are stored with their full
// pattern (both triangles) so that row access, matrix-vector products and
// pattern unions stay simple; the factorization packages extract the
// triangle they need through TriView.
package sparse

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/par"
)

// Builder accumulates matrix entries in triplet (COO) form. Duplicate
// entries are summed when the matrix is compressed, matching SPICE
// "stamping" semantics where several devices contribute to one matrix
// position.
type Builder struct {
	rows, cols int
	r, c       []int
	v          []float64
}

// NewBuilder returns an empty triplet builder for a rows-by-cols matrix.
func NewBuilder(rows, cols int) *Builder {
	if rows < 0 || cols < 0 {
		panic("sparse: negative dimension")
	}
	return &Builder{rows: rows, cols: cols}
}

// Add accumulates v at position (i, j).
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: entry (%d,%d) outside %dx%d matrix", i, j, b.rows, b.cols))
	}
	b.r = append(b.r, i)
	b.c = append(b.c, j)
	b.v = append(b.v, v)
}

// AddSym accumulates v at (i, j) and, when i != j, at (j, i). It is the
// natural primitive for stamping two-terminal branch elements into a
// symmetric nodal matrix.
func (b *Builder) AddSym(i, j int, v float64) {
	b.Add(i, j, v)
	if i != j {
		b.Add(j, i, v)
	}
}

// NNZ returns the number of accumulated triplets (before duplicate
// summing).
func (b *Builder) NNZ() int { return len(b.v) }

// buildRowChunk is the number of matrix rows one pool task of Build or
// PermuteSym handles. Chunk boundaries depend only on the
// row count, never on the worker count, so the work split is
// deterministic.
const buildRowChunk = 1024

// Reserve grows the builder's triplet capacity so that n further Add
// calls do not reallocate. Stamping pre-sizes from deck element counts
// through this.
func (b *Builder) Reserve(n int) {
	if need := len(b.v) + n; need > cap(b.v) {
		r := make([]int, len(b.r), need)
		copy(r, b.r)
		b.r = r
		c := make([]int, len(b.c), need)
		copy(c, b.c)
		b.c = c
		v := make([]float64, len(b.v), need)
		copy(v, b.v)
		b.v = v
	}
}

// Append bulk-adds pre-validated triplet slices, the merge primitive for
// per-chunk stamping buckets. Entries are appended in order, so a fixed
// bucket merge order yields the exact triplet sequence a serial stamp
// would have produced.
func (b *Builder) Append(r, c []int, v []float64) {
	if len(r) != len(c) || len(r) != len(v) {
		panic("sparse: Append slice length mismatch")
	}
	for k := range r {
		if r[k] < 0 || r[k] >= b.rows || c[k] < 0 || c[k] >= b.cols {
			panic(fmt.Sprintf("sparse: entry (%d,%d) outside %dx%d matrix", r[k], c[k], b.rows, b.cols))
		}
	}
	b.r = append(b.r, r...)
	b.c = append(b.c, c...)
	b.v = append(b.v, v...)
}

// Build compresses the triplets into CSR form, summing duplicates and
// dropping entries that sum to exactly zero. The builder remains usable
// afterwards (its triplets are not consumed).
//
// Counting and bucket placement run serially and keep triplet order
// within each row. The per-row sort and duplicate merge then run over
// fixed chunks of buildRowChunk rows, on the worker pool once the matrix
// spans two chunks. Each row merges inside its own segment, so the
// result is bit-identical at every GOMAXPROCS — the property the
// front-end determinism tests pin with Float64bits.
func (b *Builder) Build() *CSR {
	rowCount := make([]int, b.rows+1)
	for _, i := range b.r {
		rowCount[i+1]++
	}
	for i := 0; i < b.rows; i++ {
		rowCount[i+1] += rowCount[i]
	}
	col := make([]int, len(b.v))
	val := make([]float64, len(b.v))
	kept := make([]int, b.rows)
	copy(kept, rowCount[:b.rows])
	for k, i := range b.r {
		p := kept[i]
		col[p] = b.c[k]
		val[p] = b.v[k]
		kept[i]++
	}
	if b.rows < 2*buildRowChunk {
		// One or two chunks: the pool's closures and goroutines would
		// cost more than they save.
		mergeRows(rowCount, kept, col, val, 0, b.rows)
	} else {
		par.ForChunks(b.rows, buildRowChunk, func(_, lo, hi int) {
			mergeRows(rowCount, kept, col, val, lo, hi)
		})
	}
	// Compact the kept entries to the front in ascending row order (a
	// row only ever moves toward lower positions, which copy handles),
	// turning rowCount into the row pointers.
	dst := 0
	for i := 0; i < b.rows; i++ {
		lo := rowCount[i]
		rowCount[i] = dst
		copy(col[dst:], col[lo:lo+kept[i]])
		copy(val[dst:], val[lo:lo+kept[i]])
		dst += kept[i]
	}
	rowCount[b.rows] = dst
	return &CSR{Rows: b.rows, Cols: b.cols, RowPtr: rowCount, Col: col[:dst:dst], Val: val[:dst:dst]}
}

// mergeRows sorts rows [lo, hi) by column and sums their duplicates in
// place. Row i occupies col/val[start[i]:start[i+1]] on entry; on return
// its kept[i] merged entries lead that segment.
func mergeRows(start, kept, col []int, val []float64, lo, hi int) {
	seg := new(rowSeg) // one per chunk: sort.Sort takes the pointer unboxed
	for i := lo; i < hi; i++ {
		segLo, segHi := start[i], start[i+1]
		seg.col, seg.val = col[segLo:segHi], val[segLo:segHi]
		sort.Sort(seg)
		dst := segLo
		for p := segLo; p < segHi; {
			j := col[p]
			sum := 0.0
			for p < segHi && col[p] == j {
				sum += val[p]
				p++
			}
			if sum != 0 {
				col[dst] = j
				val[dst] = sum
				dst++
			}
		}
		kept[i] = dst - segLo
	}
}

// rowSeg sorts one row's column and value slices together by column.
// Callers reuse one *rowSeg per chunk and repoint its slices per row: a
// rowSeg value would be boxed, one allocation per sorted row.
type rowSeg struct {
	col []int
	val []float64
}

func (s *rowSeg) Len() int           { return len(s.col) }
func (s *rowSeg) Less(i, j int) bool { return s.col[i] < s.col[j] }
func (s *rowSeg) Swap(i, j int) {
	s.col[i], s.col[j] = s.col[j], s.col[i]
	s.val[i], s.val[j] = s.val[j], s.val[i]
}

// CSR is a compressed-sparse-row matrix. Column indices within each row
// are sorted strictly increasing and carry no duplicates.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	Col        []int
	Val        []float64
}

// Zero returns an empty rows-by-cols matrix.
func Zero(rows, cols int) *CSR {
	return &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *CSR {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
	}
	return b.Build()
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Val) }

// Clone returns a deep copy of a.
func (a *CSR) Clone() *CSR {
	c := &CSR{
		Rows: a.Rows, Cols: a.Cols,
		RowPtr: append([]int(nil), a.RowPtr...),
		Col:    append([]int(nil), a.Col...),
		Val:    append([]float64(nil), a.Val...),
	}
	return c
}

// At returns the (i, j) entry (zero when not stored) by binary search
// within row i.
func (a *CSR) At(i, j int) float64 {
	if i < 0 || i >= a.Rows || j < 0 || j >= a.Cols {
		panic("sparse: At index out of range")
	}
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	p := lo + sort.SearchInts(a.Col[lo:hi], j)
	if p < hi && a.Col[p] == j {
		return a.Val[p]
	}
	return 0
}

// Row returns the column indices and values of row i as sub-slices of the
// backing storage; the caller must not modify the indices.
func (a *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.Col[lo:hi], a.Val[lo:hi]
}

// Scale multiplies every stored entry by f in place.
func (a *CSR) Scale(f float64) {
	for i := range a.Val {
		a.Val[i] *= f
	}
}

// MulVec computes dst = A x. dst and x must not alias.
func (a *CSR) MulVec(dst, x []float64) {
	if len(x) != a.Cols || len(dst) != a.Rows {
		panic("sparse: MulVec dimension mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			s += a.Val[p] * x[a.Col[p]]
		}
		dst[i] = s
	}
}

// Transpose returns Aᵀ as a new CSR matrix.
func (a *CSR) Transpose() *CSR {
	t := &CSR{Rows: a.Cols, Cols: a.Rows}
	t.RowPtr = make([]int, a.Cols+1)
	for _, j := range a.Col {
		t.RowPtr[j+1]++
	}
	for j := 0; j < a.Cols; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	t.Col = make([]int, len(a.Col))
	t.Val = make([]float64, len(a.Val))
	next := make([]int, a.Cols)
	copy(next, t.RowPtr[:a.Cols])
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.Col[p]
			q := next[j]
			t.Col[q] = i
			t.Val[q] = a.Val[p]
			next[j]++
		}
	}
	return t
}

// Add returns alpha*A + beta*B. A and B must have identical shape.
func Add(alpha float64, a *CSR, beta float64, b *CSR) *CSR {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("sparse: Add shape mismatch")
	}
	out := &CSR{Rows: a.Rows, Cols: a.Cols}
	out.RowPtr = make([]int, a.Rows+1)
	out.Col = make([]int, 0, a.NNZ()+b.NNZ())
	out.Val = make([]float64, 0, a.NNZ()+b.NNZ())
	for i := 0; i < a.Rows; i++ {
		pa, ea := a.RowPtr[i], a.RowPtr[i+1]
		pb, eb := b.RowPtr[i], b.RowPtr[i+1]
		for pa < ea || pb < eb {
			var j int
			var v float64
			switch {
			case pb >= eb || (pa < ea && a.Col[pa] < b.Col[pb]):
				j, v = a.Col[pa], alpha*a.Val[pa]
				pa++
			case pa >= ea || b.Col[pb] < a.Col[pa]:
				j, v = b.Col[pb], beta*b.Val[pb]
				pb++
			default:
				j, v = a.Col[pa], alpha*a.Val[pa]+beta*b.Val[pb]
				pa++
				pb++
			}
			if v != 0 {
				out.Col = append(out.Col, j)
				out.Val = append(out.Val, v)
			}
		}
		out.RowPtr[i+1] = len(out.Col)
	}
	return out
}

// AddDiagonal returns A + γI for a square matrix, materializing diagonal
// entries the pattern lacks. It is the regularization primitive of the
// Cholesky recovery ladder: a singular conductance block D (floating
// internal subnetwork) becomes factorizable as D + γI at the cost of a
// bounded, reported admittance perturbation.
func AddDiagonal(a *CSR, gamma float64) *CSR {
	if a.Rows != a.Cols {
		panic("sparse: AddDiagonal needs a square matrix")
	}
	return Add(1, a, gamma, Identity(a.Rows))
}

// PermuteSym returns B with B[i][j] = A[perm[i]][perm[j]]; perm maps new
// index to old index and must be a permutation of 0..n-1. A must be
// square. Entries whose value is exactly zero are dropped, matching the
// historical triplet-rebuild semantics.
//
// Each output row is row perm[i] of A with columns remapped and
// re-sorted, built directly into its own slice segment; rows are
// independent, so the per-row work runs on the worker pool and the
// result is identical at every GOMAXPROCS.
func (a *CSR) PermuteSym(perm []int) *CSR {
	if a.Rows != a.Cols {
		panic("sparse: PermuteSym requires a square matrix")
	}
	n := a.Rows
	if len(perm) != n {
		panic("sparse: PermuteSym permutation length mismatch")
	}
	inv := InversePerm(perm)
	out := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for i, iOld := range perm {
		cnt := 0
		for p := a.RowPtr[iOld]; p < a.RowPtr[iOld+1]; p++ {
			if a.Val[p] != 0 {
				cnt++
			}
		}
		out.RowPtr[i+1] = out.RowPtr[i] + cnt
	}
	out.Col = make([]int, out.RowPtr[n])
	out.Val = make([]float64, out.RowPtr[n])
	par.ForChunks(n, buildRowChunk, func(_, lo, hi int) {
		seg := new(rowSeg) // one per chunk: sort.Sort takes the pointer unboxed
		for i := lo; i < hi; i++ {
			iOld := perm[i]
			q := out.RowPtr[i]
			prev := -1
			sorted := true
			for p := a.RowPtr[iOld]; p < a.RowPtr[iOld+1]; p++ {
				if a.Val[p] == 0 {
					continue
				}
				j := inv[a.Col[p]]
				out.Col[q] = j
				out.Val[q] = a.Val[p]
				q++
				if j < prev {
					sorted = false
				}
				prev = j
			}
			if !sorted {
				seg.col, seg.val = out.Col[out.RowPtr[i]:q], out.Val[out.RowPtr[i]:q]
				sort.Sort(seg)
			}
		}
	})
	return out
}

// PermuteRows returns B with row i of B equal to row perm[i] of A.
func (a *CSR) PermuteRows(perm []int) *CSR {
	if len(perm) != a.Rows {
		panic("sparse: PermuteRows permutation length mismatch")
	}
	out := &CSR{Rows: a.Rows, Cols: a.Cols}
	out.RowPtr = make([]int, a.Rows+1)
	for i, iOld := range perm {
		out.RowPtr[i+1] = out.RowPtr[i] + (a.RowPtr[iOld+1] - a.RowPtr[iOld])
	}
	out.Col = make([]int, out.RowPtr[a.Rows])
	out.Val = make([]float64, out.RowPtr[a.Rows])
	for i, iOld := range perm {
		copy(out.Col[out.RowPtr[i]:], a.Col[a.RowPtr[iOld]:a.RowPtr[iOld+1]])
		copy(out.Val[out.RowPtr[i]:], a.Val[a.RowPtr[iOld]:a.RowPtr[iOld+1]])
	}
	return out
}

// PatternUnion returns a matrix with the union of the patterns of A and B
// and values |A| + |B|, keeping every stored entry. It is used to build
// the symbolic pattern for factorizations of D + sE that must be valid
// for every s: an entry is zero only where both operands are, so no
// exact cancellation A[i][j] = −B[i][j] drops a position from an
// analysis that discards zeros (order.Analyze).
func PatternUnion(a, b *CSR) *CSR {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("sparse: PatternUnion shape mismatch")
	}
	out := &CSR{Rows: a.Rows, Cols: a.Cols}
	out.RowPtr = make([]int, a.Rows+1)
	for i := 0; i < a.Rows; i++ {
		pa, ea := a.RowPtr[i], a.RowPtr[i+1]
		pb, eb := b.RowPtr[i], b.RowPtr[i+1]
		for pa < ea || pb < eb {
			var j int
			var v float64
			switch {
			case pb >= eb || (pa < ea && a.Col[pa] < b.Col[pb]):
				j, v = a.Col[pa], math.Abs(a.Val[pa])
				pa++
			case pa >= ea || b.Col[pb] < a.Col[pa]:
				j, v = b.Col[pb], math.Abs(b.Val[pb])
				pb++
			default:
				j, v = a.Col[pa], math.Abs(a.Val[pa])+math.Abs(b.Val[pb])
				pa++
				pb++
			}
			out.Col = append(out.Col, j)
			out.Val = append(out.Val, v)
		}
		out.RowPtr[i+1] = len(out.Col)
	}
	return out
}

// InversePerm returns q with q[perm[i]] = i.
func InversePerm(perm []int) []int {
	inv := make([]int, len(perm))
	for i := range inv {
		inv[i] = -1
	}
	for i, p := range perm {
		if p < 0 || p >= len(perm) || inv[p] != -1 {
			panic("sparse: invalid permutation")
		}
		inv[p] = i
	}
	return inv
}

// IdentityPerm returns the identity permutation of length n.
func IdentityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Dot returns xᵀy.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("sparse: Dot length mismatch")
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}
