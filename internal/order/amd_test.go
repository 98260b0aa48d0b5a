package order

import (
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

func grid3D(nx, ny, nz int) *sparse.CSR {
	n := nx * ny * nz
	b := sparse.NewBuilder(n, n)
	id := func(x, y, z int) int { return (z*ny+y)*nx + x }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				b.Add(id(x, y, z), id(x, y, z), 6)
				if x+1 < nx {
					b.AddSym(id(x, y, z), id(x+1, y, z), -1)
				}
				if y+1 < ny {
					b.AddSym(id(x, y, z), id(x, y+1, z), -1)
				}
				if z+1 < nz {
					b.AddSym(id(x, y, z), id(x, y, z+1), -1)
				}
			}
		}
	}
	return b.Build()
}

// binaryTree builds the graph of a complete binary tree on n heap-indexed
// nodes — the clock-tree topology netgen generates at scale.
func binaryTree(n int) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if c := 2*i + 1; c < n {
			b.AddSym(i, c, -1)
		}
		if c := 2*i + 2; c < n {
			b.AddSym(i, c, -1)
		}
	}
	return b.Build()
}

// fillFor computes the Cholesky factor nonzero count of a under the given
// permutation via the etree-based symbolic analysis.
func fillFor(a *sparse.CSR, perm []int) int {
	upper := a.PermuteSym(perm).UpperCSC()
	parent := ETree(upper)
	total := 0
	for _, c := range ColCounts(upper, parent) {
		total += c
	}
	return total
}

func TestAMDIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(80)
		a := randomSymPattern(rng, n, 3*n)
		if !validPerm(AMD(a), n) {
			t.Fatalf("trial %d: AMD did not return a permutation", trial)
		}
	}
}

func TestAMDHandlesDisconnected(t *testing.T) {
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
	if !validPerm(AMD(a), n) {
		t.Fatal("AMD failed on disconnected graph")
	}
}

func TestAMDDeterministic(t *testing.T) {
	// Same pattern, same permutation — AMD is a pure serial function of
	// the pattern, so repeated runs must agree exactly.
	fixtures := []*sparse.CSR{
		grid2D(17, 13),
		grid3D(6, 6, 6),
		binaryTree(501),
	}
	rng := rand.New(rand.NewSource(32))
	fixtures = append(fixtures, randomSymPattern(rng, 300, 900))
	for fi, a := range fixtures {
		p1 := AMD(a)
		p2 := AMD(a)
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("fixture %d: AMD not deterministic at position %d: %d vs %d", fi, i, p1[i], p2[i])
			}
		}
	}
}

// gridMinusPorts is the internal-node pattern of an nx×ny grid whose
// nodes on every step-th row and column are ports — the D block of a
// graded wide-band grid deck.
func gridMinusPorts(nx, ny, step int) *sparse.CSR {
	id := make([]int, nx*ny)
	n := 0
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			id[y*nx+x] = -1
			if x%step != step/2 || y%step != step/2 {
				id[y*nx+x] = n
				n++
			}
		}
	}
	b := sparse.NewBuilder(n, n)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := id[y*nx+x]
			if i < 0 {
				continue
			}
			b.Add(i, i, 4)
			if x+1 < nx && id[y*nx+x+1] >= 0 {
				b.AddSym(i, id[y*nx+x+1], -1)
			}
			if y+1 < ny && id[(y+1)*nx+x] >= 0 {
				b.AddSym(i, id[(y+1)*nx+x], -1)
			}
		}
	}
	return b.Build()
}

// mnaPattern is the symmetrized MNA pattern the simulator orders (the
// pattern of A + Aᵀ with a unit diagonal): two inverters driving each
// other across a nseg-segment RC line, with a branch row per voltage
// source (supply and input), as in the Figure 2 circuit.
func mnaPattern(nseg int) *sparse.CSR {
	// Nodes: line 0..nseg (line 0 = driver output), then in1, vdd, out2,
	// then the two source branch rows.
	in1, vdd, out2 := nseg+1, nseg+2, nseg+3
	brVdd, brIn := nseg+4, nseg+5
	n := nseg + 6
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
	}
	for i := 0; i < nseg; i++ {
		b.AddSym(i, i+1, 1)
	}
	// MOSFETs couple drain, gate and source pairwise (ground dropped).
	mos := func(d, g, s int) {
		b.AddSym(d, g, 1)
		if s >= 0 {
			b.AddSym(d, s, 1)
			b.AddSym(g, s, 1)
		}
	}
	mos(0, in1, -1)
	mos(0, in1, vdd)
	mos(out2, nseg, -1)
	mos(out2, nseg, vdd)
	b.AddSym(brVdd, vdd, 1)
	b.AddSym(brIn, in1, 1)
	return b.Build()
}

func TestAMDFillNoWorseThanMinDegree(t *testing.T) {
	// On the fixture meshes the supervariable AMD must match or beat the
	// plain minimum-degree ordering it replaced. Analyze runs AMD at
	// every order, so the fixtures include the sub-512 patterns of the
	// service traffic (ladders, graded grids) and the simulator's MNA
	// systems.
	fixtures := []struct {
		name string
		a    *sparse.CSR
	}{
		{"grid2d-20x20", grid2D(20, 20)},
		{"grid2d-31x17", grid2D(31, 17)},
		{"grid3d-7x7x7", grid3D(7, 7, 7)},
		{"tree-1023", binaryTree(1023)},
		{"path-400", pathGraph(400)},
		{"ladder-400seg", pathGraph(399)},
		{"graded-grid-14x14", gridMinusPorts(14, 14, 5)},
		{"sim-mna-100seg", mnaPattern(100)},
	}
	for _, f := range fixtures {
		amd := fillFor(f.a, AMD(f.a))
		md := fillFor(f.a, MinDegree(f.a))
		t.Logf("%s: AMD fill %d, MinDegree fill %d", f.name, amd, md)
		if amd > md {
			t.Errorf("%s: AMD fill %d worse than MinDegree fill %d", f.name, amd, md)
		}
	}
}

func TestAMDFillMatchesBruteForce(t *testing.T) {
	// The permuted-pattern fill reported through the symbolic pipeline
	// must equal brute-force symbolic elimination, i.e. the permutation
	// is usable, not just valid.
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(24)
		a := randomSymPattern(rng, n, 2*n)
		perm := AMD(a)
		if !validPerm(perm, n) {
			t.Fatalf("trial %d: invalid perm", trial)
		}
		got := fillFor(a, perm)
		want := denseSymbolicFill(a.PermuteSym(perm))
		if got != want {
			t.Fatalf("trial %d: fill %d, brute force %d", trial, got, want)
		}
	}
}

func TestAnalyzeDispatchesAMD(t *testing.T) {
	// Analyze's MinimumDegree method is AMD at every order, small and
	// large, and records its stage times.
	rng := rand.New(rand.NewSource(34))
	for _, a := range []*sparse.CSR{
		grid2D(25, 25).PermuteSym(rng.Perm(625)),
		grid2D(9, 11).PermuteSym(rng.Perm(99)),
	} {
		sym, _ := Analyze(a, MinimumDegree)
		want := AMD(a)
		for i := range want {
			if sym.Perm[i] != want[i] {
				t.Fatalf("order %d: Analyze did not use AMD (pos %d)", a.Rows, i)
			}
		}
		if sym.OrderNs < 0 || sym.SymbolicNs <= 0 {
			t.Errorf("order %d: stage times not recorded: order %d symbolic %d", a.Rows, sym.OrderNs, sym.SymbolicNs)
		}
	}
}
