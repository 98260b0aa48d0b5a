// Package order provides fill-reducing orderings (minimum degree, reverse
// Cuthill–McKee) and the symbolic analysis (elimination tree, column
// counts) that drive the sparse Cholesky and LDLᵀ factorizations used by
// the PACT reduction.
package order

import (
	"fmt"
	"time"

	"repro/internal/sparse"
)

// Method selects the fill-reducing ordering used by Analyze.
type Method int

const (
	// MinimumDegree orders by approximate minimum degree (AMD): a
	// quotient graph with element absorption and supervariables; the
	// default, best for the strongly connected 3-D meshes the paper
	// targets. It runs at every order.
	MinimumDegree Method = iota
	// RCM orders by reverse Cuthill–McKee from a pseudo-peripheral start
	// node, producing banded factors; kept as a robust cross-check.
	RCM
	// Natural keeps the input ordering. Useful in tests and for matrices
	// that are already well ordered (e.g. ladders).
	Natural
)

func (m Method) String() string {
	switch m {
	case MinimumDegree:
		return "minimum-degree"
	case RCM:
		return "rcm"
	case Natural:
		return "natural"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Symbolic holds the result of the symbolic Cholesky analysis of a
// symmetric matrix: the fill-reducing permutation, the elimination tree of
// the permuted matrix, and the column pointers of its Cholesky factor L.
type Symbolic struct {
	N      int
	Perm   []int // new index -> old index
	Inv    []int // old index -> new index
	Parent []int // elimination tree of the permuted matrix
	ColPtr []int // column pointers of L (length N+1)

	// Stage wall times, filled by Analyze: the fill-reducing ordering
	// itself, and the symbolic analysis (pattern permute, elimination
	// tree, column counts) that follows it.
	OrderNs    int64
	SymbolicNs int64
}

// LNNZ returns the number of nonzeros in the Cholesky factor (including
// the diagonal).
func (s *Symbolic) LNNZ() int { return s.ColPtr[s.N] }

// Analyze computes a fill-reducing ordering of the symmetric matrix a
// (full pattern) and the symbolic factorization of the permuted matrix,
// which it returns alongside: ap = a.PermuteSym(sym.Perm), so ap[i][j] =
// a[Perm[i]][Perm[j]] with exact zeros dropped. The symbolic structure
// describes ap's pattern exactly, so ap is the matrix to hand to
// chol.Factorize / chol.Analyze; no caller permutes a again. The ordering
// reads the pattern only; a's values matter only in that exact zeros
// leave ap. The pattern must be structurally symmetric.
func Analyze(a *sparse.CSR, method Method) (*Symbolic, *sparse.CSR) {
	if a.Rows != a.Cols {
		panic("order: Analyze requires a square matrix")
	}
	n := a.Rows
	// Wall-clock reads here feed only the OrderNs/SymbolicNs stage
	// accounting; the permutation and symbolic structure are pure
	// functions of the pattern.
	//lint:ignore nondet stage wall-time accounting only, never feeds numeric results
	t0 := time.Now()
	var perm []int
	switch method {
	case MinimumDegree:
		perm = AMD(a)
	case RCM:
		perm = ReverseCuthillMcKee(a)
	case Natural:
		perm = sparse.IdentityPerm(n)
	default:
		panic("order: unknown ordering method")
	}
	//lint:ignore nondet stage wall-time accounting only, never feeds numeric results
	t1 := time.Now()
	ap := a.PermuteSym(perm)
	upper := ap.UpperCSC()
	parent := ETree(upper)
	counts := ColCounts(upper, parent)
	colPtr := make([]int, n+1)
	for j := 0; j < n; j++ {
		colPtr[j+1] = colPtr[j] + counts[j]
	}
	//lint:ignore nondet stage wall-time accounting only, never feeds numeric results
	end := time.Now()
	return &Symbolic{
		N:          n,
		Perm:       perm,
		Inv:        sparse.InversePerm(perm),
		Parent:     parent,
		ColPtr:     colPtr,
		OrderNs:    t1.Sub(t0).Nanoseconds(),
		SymbolicNs: end.Sub(t1).Nanoseconds(),
	}, ap
}

// ETree computes the elimination tree of a symmetric matrix given its
// upper triangle (including the diagonal) in CSC form. parent[j] is the
// parent of column j, or -1 for a root.
func ETree(a *sparse.CSC) []int {
	n := a.Cols
	parent := make([]int, n)
	ancestor := make([]int, n)
	for k := 0; k < n; k++ {
		parent[k] = -1
		ancestor[k] = -1
		for p := a.ColPtr[k]; p < a.ColPtr[k+1]; p++ {
			// Traverse from row i up the partially built tree, compressing
			// paths through the ancestor array as we go.
			for i := a.Row[p]; i != -1 && i < k; {
				next := ancestor[i]
				ancestor[i] = k
				if next == -1 {
					parent[i] = k
				}
				i = next
			}
		}
	}
	return parent
}

// EReach computes the nonzero pattern of row k of the Cholesky factor L
// (excluding the diagonal) given the upper triangle of A in CSC form and
// the elimination tree. The pattern is returned in s[top:n] in topological
// order (deepest column first). w is an integer workspace of length n,
// initialized to -1 before the first call; EReach marks visited nodes with
// the value k, so the same workspace can be reused across increasing
// k = 0..n-1 without clearing.
func EReach(a *sparse.CSC, k int, parent []int, s, w []int) int {
	n := a.Cols
	top := n
	w[k] = k
	for p := a.ColPtr[k]; p < a.ColPtr[k+1]; p++ {
		i := a.Row[p]
		if i > k {
			continue
		}
		// Walk up the elimination tree until hitting a marked node,
		// recording the path, then flush it to s in reverse.
		length := 0
		for ; w[i] != k; i = parent[i] {
			s[length] = i
			length++
			w[i] = k
		}
		for length > 0 {
			length--
			top--
			s[top] = s[length]
		}
	}
	return top
}

// ColCounts returns the number of nonzeros in each column of L (including
// the diagonal) by accumulating the row patterns from EReach. This is
// O(|L|), which is fine at the scales this repository targets and keeps
// the code obviously correct.
func ColCounts(a *sparse.CSC, parent []int) []int {
	n := a.Cols
	counts := make([]int, n)
	s := make([]int, n)
	w := make([]int, n)
	for i := range w {
		w[i] = -1
	}
	for k := 0; k < n; k++ {
		counts[k]++ // diagonal
		top := EReach(a, k, parent, s, w)
		for ; top < n; top++ {
			counts[s[top]]++
		}
	}
	return counts
}
