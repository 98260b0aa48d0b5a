package order

import (
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// rcMeshPattern builds the symmetric pattern of an nx×ny RC-mesh
// conductance matrix (5-point grid plus a random sprinkle of extra
// coupling edges), the structural class the factorization sees.
func rcMeshPattern(rng *rand.Rand, nx, ny, extra int) *sparse.CSR {
	n := nx * ny
	idx := func(x, y int) int { return y*nx + x }
	b := sparse.NewBuilder(n, n)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := idx(x, y)
			b.Add(i, i, 4)
			if x+1 < nx {
				b.AddSym(i, idx(x+1, y), -1)
			}
			if y+1 < ny {
				b.AddSym(i, idx(x, y+1), -1)
			}
		}
	}
	for k := 0; k < extra; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			b.AddSym(i, j, -0.25)
		}
	}
	return b.Build()
}

// TestFundamentalSupernodes validates the zero-fill partition on random
// RC-mesh patterns under every ordering: the structural invariants hold
// and every boundary is maximal — the
// next column genuinely fails the fundamental condition (or the width
// cap), so no two adjacent supernodes could have been fused for free.
func TestFundamentalSupernodes(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 12; trial++ {
		nx, ny := 2+rng.Intn(9), 2+rng.Intn(9)
		a := rcMeshPattern(rng, nx, ny, rng.Intn(3*nx*ny))
		for _, m := range []Method{Natural, RCM, MinimumDegree} {
			sym, _ := Analyze(a, m)
			sn := sym.FindSupernodes(DefaultMaxWidth)
			if err := sn.Validate(sym); err != nil {
				t.Fatalf("trial %d %v: %v", trial, m, err)
			}
			count := func(j int) int { return sym.ColPtr[j+1] - sym.ColPtr[j] }
			for s := 0; s < sn.NSuper(); s++ {
				lo, hi := sn.Super[s], sn.Super[s+1]
				// Inside: the exact fundamental condition per merged pair.
				for j := lo + 1; j < hi; j++ {
					if sym.Parent[j-1] != j || count(j-1) != count(j)+1 {
						t.Fatalf("trial %d %v: columns %d,%d merged without the fundamental condition",
							trial, m, j-1, j)
					}
				}
				// Boundary: maximal unless the width cap forced the split.
				if hi < sym.N && hi-lo < DefaultMaxWidth &&
					sym.Parent[hi-1] == hi && count(hi-1) == count(hi)+1 {
					t.Fatalf("trial %d %v: supernode %d not maximal at column %d", trial, m, s, hi)
				}
			}
		}
	}
}

// TestSupernodesEdgeCases covers the trivial shapes: empty, and a
// diagonal matrix (no etree edges, so every column is its own
// supernode).
func TestSupernodesEdgeCases(t *testing.T) {
	t.Parallel()
	empty := &Symbolic{N: 0, ColPtr: []int{0}}
	if sn := empty.FindSupernodes(DefaultMaxWidth); sn.NSuper() != 0 {
		t.Fatalf("empty matrix: %d supernodes", sn.NSuper())
	}
	b := sparse.NewBuilder(5, 5)
	for i := 0; i < 5; i++ {
		b.Add(i, i, 1)
	}
	sym, _ := Analyze(b.Build(), Natural)
	sn := sym.FindSupernodes(DefaultMaxWidth)
	if err := sn.Validate(sym); err != nil {
		t.Fatal(err)
	}
	if sn.NSuper() != 5 {
		t.Fatalf("diagonal matrix: %d supernodes, want 5 (no etree edges to merge along)", sn.NSuper())
	}
}

// TestSupernodesDenseChain: a fully dense SPD pattern is one chain with
// perfectly nested structures — a single supernode up to the width cap.
func TestSupernodesDenseChain(t *testing.T) {
	t.Parallel()
	n := 10
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				b.Add(i, i, float64(n))
			} else {
				b.Add(i, j, -0.5)
			}
		}
	}
	sym, _ := Analyze(b.Build(), Natural)
	sn := sym.FindSupernodes(DefaultMaxWidth)
	if err := sn.Validate(sym); err != nil {
		t.Fatal(err)
	}
	if sn.NSuper() != 1 {
		t.Fatalf("dense pattern: %d supernodes, want 1", sn.NSuper())
	}
	capped := sym.FindSupernodes(4)
	if got := capped.NSuper(); got != 3 {
		t.Fatalf("dense pattern with width cap 4: %d supernodes, want 3", got)
	}
}
