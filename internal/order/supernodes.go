package order

import "fmt"

// SupernodeOptions tunes the supernode partition used by the blocked
// (supernodal) Cholesky kernels.
type SupernodeOptions struct {
	// MaxWidth caps the number of columns per supernode (panel width).
	// Zero means DefaultMaxWidth. Wider panels amortize more work into
	// dense rank-k updates but grow the per-panel scratch.
	MaxWidth int
	// RelaxFill is the relaxed-amalgamation budget: a column whose
	// structure is *almost* nested in the running panel may still be
	// merged as long as the explicitly stored zeros stay at or below
	// RelaxFill times the panel's entry count. Zero fill budget (the
	// default, and what chol.Analyze uses) yields exactly the fundamental
	// partition. Negative disables amalgamation (same result as zero;
	// kept for clarity in tests).
	RelaxFill float64
}

// DefaultMaxWidth is the panel-width cap used when
// SupernodeOptions.MaxWidth is zero: wide enough for rank-k updates to
// run at dense-kernel speed, small enough that a panel's diagonal block
// (MaxWidth² floats) stays cache resident.
const DefaultMaxWidth = 48

func (o SupernodeOptions) withDefaults() SupernodeOptions {
	if o.MaxWidth <= 0 {
		o.MaxWidth = DefaultMaxWidth
	}
	if o.RelaxFill < 0 {
		o.RelaxFill = 0
	}
	return o
}

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
	// Fill counts the explicitly stored zeros the relaxed amalgamation
	// introduced (zero for a fundamental partition).
	Fill int
}

// NSuper returns the number of supernodes.
func (sn *Supernodes) NSuper() int { return len(sn.Super) - 1 }

// Width returns the column count of supernode s.
func (sn *Supernodes) Width(s int) int { return sn.Super[s+1] - sn.Super[s] }

// FindSupernodes partitions the columns of the symbolic factor into
// supernodes. Column j extends the running panel [s, j) when the panel
// stays a chain of the elimination tree (Parent[j-1] == j) and either
//
//   - the structures nest exactly — count[j-1] == count[j] + 1, the
//     fundamental-supernode condition: struct(L(:,j-1)) \ {j-1} equals
//     struct(L(:,j)), so the panel gains no stored zeros — or
//   - the merge is "relaxed": the explicit zeros of the widened panel
//     stay within opt.RelaxFill of its entries.
//
// Both cases respect opt.MaxWidth. The scan is a single deterministic
// left-to-right pass, so the partition depends only on the symbolic
// structure and the options.
func (sym *Symbolic) FindSupernodes(opt SupernodeOptions) *Supernodes {
	opt = opt.withDefaults()
	n := sym.N
	count := make([]int, n) // nnz of column j of L, incl. diagonal
	for j := 0; j < n; j++ {
		count[j] = sym.ColPtr[j+1] - sym.ColPtr[j]
	}
	sn := &Supernodes{ColToSuper: make([]int, n)}
	sn.Super = append(sn.Super, 0)
	start := 0
	liveNNZ := 0    // Σ count[i] for i in the running panel
	panelZeros := 0 // explicit zeros of the running panel
	for j := 0; j < n; j++ {
		if j > start {
			w := j - start // panel width before the candidate extension
			extend := sym.Parent[j-1] == j && w < opt.MaxWidth
			if extend {
				// The widened panel [start..j] stores, per column i, the
				// in-panel rows {i..j} plus the count[j]−1 below-diagonal
				// rows of its (new) last column; whatever exceeds the
				// columns' own structures is explicitly stored zero. The
				// fundamental condition count[j-1] == count[j]+1 keeps
				// the zero count unchanged; otherwise the merge must fit
				// the relaxed-fill budget.
				W := w + 1
				entries := W*(W+1)/2 + W*(count[j]-1)
				zeros := entries - liveNNZ - count[j]
				if count[j-1] != count[j]+1 {
					extend = zeros <= int(opt.RelaxFill*float64(entries))
				}
				if extend {
					panelZeros = zeros
				}
			}
			if !extend {
				sn.Fill += panelZeros
				sn.Super = append(sn.Super, j)
				start = j
				liveNNZ = 0
				panelZeros = 0
			}
		}
		liveNNZ += count[j]
		sn.ColToSuper[j] = len(sn.Super) - 1
	}
	if n > 0 {
		sn.Fill += panelZeros
		sn.Super = append(sn.Super, n)
	}
	return sn
}

// Validate checks the structural invariants of a partition against its
// symbolic analysis: contiguous coverage, consistent ColToSuper, the
// chain property inside every panel, and structure nesting
// (count[j-1] <= count[j]+1 within a panel — equality everywhere exactly
// when the partition is fundamental). It is used by tests and by the
// factorization package's tests.
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
				// parent[j-1] == j implies struct(j-1)\{j-1} ⊆ struct(j),
				// so count[j-1] <= count[j]+1; equality is the
				// fundamental (zero-fill) case.
				cPrev := sym.ColPtr[j] - sym.ColPtr[j-1]
				cCur := sym.ColPtr[j+1] - sym.ColPtr[j]
				if cPrev > cCur+1 {
					return fmt.Errorf("order: column %d structure not nested in supernode %d", j, s)
				}
			}
		}
	}
	return nil
}
