package order

import "fmt"

// DefaultMaxWidth is the panel-width cap of the supernodal Cholesky:
// wide enough for rank-k updates to run at dense-kernel speed, small
// enough that a panel's diagonal block (DefaultMaxWidth² floats) stays
// cache resident.
const DefaultMaxWidth = 48

// Supernodes is a partition of the factor's columns into contiguous
// panels, each of which is stored and factored as one dense trapezoid by
// the supernodal kernels. Within a panel the elimination tree is a chain
// (Parent[j] = j+1 for all but the last column), so the row structure of
// every column is a suffix of the panel's row list — the invariant the
// dense storage relies on.
type Supernodes struct {
	// Super holds the first column of each supernode plus the terminating
	// N, so supernode s spans columns [Super[s], Super[s+1]).
	Super []int
	// ColToSuper maps each column to its supernode.
	ColToSuper []int
}

// NSuper returns the number of supernodes.
func (sn *Supernodes) NSuper() int { return len(sn.Super) - 1 }

// Width returns the column count of supernode s.
func (sn *Supernodes) Width(s int) int { return sn.Super[s+1] - sn.Super[s] }

// FindSupernodes partitions the columns of the symbolic factor into
// fundamental supernodes of at most maxWidth columns. Column j extends
// the running panel [s, j) when the panel stays a chain of the
// elimination tree (Parent[j-1] == j), the structures nest exactly —
// count[j-1] == count[j] + 1: struct(L(:,j-1)) \ {j-1} equals
// struct(L(:,j)), so the panel stores no zeros — and the panel is
// narrower than maxWidth. The scan is a single deterministic
// left-to-right pass, so the partition depends only on the symbolic
// structure and the width cap.
func (sym *Symbolic) FindSupernodes(maxWidth int) *Supernodes {
	n := sym.N
	count := func(j int) int { return sym.ColPtr[j+1] - sym.ColPtr[j] } // nnz of L(:,j), incl. diagonal
	sn := &Supernodes{ColToSuper: make([]int, n)}
	sn.Super = append(sn.Super, 0)
	start := 0
	for j := 0; j < n; j++ {
		if j > start && !(sym.Parent[j-1] == j && j-start < maxWidth && count(j-1) == count(j)+1) {
			sn.Super = append(sn.Super, j)
			start = j
		}
		sn.ColToSuper[j] = len(sn.Super) - 1
	}
	if n > 0 {
		sn.Super = append(sn.Super, n)
	}
	return sn
}

// Validate checks the structural invariants of a fundamental partition
// against its symbolic analysis: contiguous coverage, consistent
// ColToSuper, the chain property inside every panel, and exact
// structure nesting (count[j-1] == count[j]+1 within a panel). It is
// used by tests and by the factorization package's tests.
func (sn *Supernodes) Validate(sym *Symbolic) error {
	n := sym.N
	if len(sn.ColToSuper) != n {
		return fmt.Errorf("order: ColToSuper length %d, want %d", len(sn.ColToSuper), n)
	}
	if n == 0 {
		return nil
	}
	if sn.Super[0] != 0 || sn.Super[len(sn.Super)-1] != n {
		return fmt.Errorf("order: supernode boundaries do not cover [0,%d)", n)
	}
	for s := 0; s < sn.NSuper(); s++ {
		lo, hi := sn.Super[s], sn.Super[s+1]
		if lo >= hi {
			return fmt.Errorf("order: empty supernode %d", s)
		}
		for j := lo; j < hi; j++ {
			if sn.ColToSuper[j] != s {
				return fmt.Errorf("order: column %d maps to supernode %d, want %d", j, sn.ColToSuper[j], s)
			}
			if j > lo {
				if sym.Parent[j-1] != j {
					return fmt.Errorf("order: supernode %d is not an etree chain at column %d", s, j)
				}
				cPrev := sym.ColPtr[j] - sym.ColPtr[j-1]
				cCur := sym.ColPtr[j+1] - sym.ColPtr[j]
				if cPrev != cCur+1 {
					return fmt.Errorf("order: column %d structure not nested in supernode %d", j, s)
				}
			}
		}
	}
	return nil
}
