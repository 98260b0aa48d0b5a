package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// The accuracy-oracle suite: deterministic graded fixtures whose time
// constants span several decades — the workload single-expansion-point
// reduction is known to struggle with — measured against the dense
// brute-force Y(s) oracle. Every test pins the headline claim of the
// multi-point mode: at equal reduced order, the multi-point model is at
// least as accurate as the single-point model over the band, and on the
// wide-band many-port bench strictly better. The *Basis tests measure
// the expansion points alone: single-point gets the same pole selector,
// on fixtures whose candidates project (fewer columns than N).

// rcStamper collects grounded G and C stamps; j == -1 means ground.
type rcStamper struct {
	gb, cb *sparse.Builder
}

func newRCStamper(tot int) *rcStamper {
	return &rcStamper{gb: sparse.NewBuilder(tot, tot), cb: sparse.NewBuilder(tot, tot)}
}

func (s *rcStamper) resistor(i, j int, res float64) {
	cond := 1 / res
	s.gb.Add(i, i, cond)
	if j >= 0 {
		s.gb.Add(j, j, cond)
		s.gb.AddSym(i, j, -cond)
	}
}

func (s *rcStamper) capacitor(i int, cap float64) {
	s.cb.Add(i, i, cap)
}

func (s *rcStamper) system(t testing.TB, ports []int) *System {
	t.Helper()
	sys, err := Partition(s.gb.Build(), s.cb.Build(), ports)
	if err != nil {
		t.Fatalf("partition fixture: %v", err)
	}
	return sys
}

// gradedLadderSystem is an nn-node RC chain whose segment resistance
// grows by `decades` decades from the driven end to the far end, ports
// at both ends. Unit-scale parts, so the interesting band sits near
// f ~ 1/(2π) in fixture units.
func gradedLadderSystem(t *testing.T, nn int, decades float64) *System {
	st := newRCStamper(nn)
	for i := 0; i+1 < nn; i++ {
		st.resistor(i, i+1, math.Pow(10, decades*float64(i)/float64(nn-1)))
	}
	for i := 0; i < nn; i++ {
		st.capacitor(i, 1)
	}
	return st.system(t, []int{0, nn - 1})
}

// gradedGridSystem is the in-package twin of netgen's wide-band deck:
// an nx×ny grid with resistances graded along x and capacitances graded
// along y, ports on a px×py subgrid spread evenly over the interior
// (same tap formula as netgen.WideBand, in fixture units R=C=1 at the
// fast corner).
func gradedGridSystem(t testing.TB, nx, ny, px, py int, decades float64) *System {
	st := newRCStamper(nx * ny)
	id := func(x, y int) int { return y*nx + x }
	gradeX := func(x float64) float64 { return math.Pow(10, decades*x/float64(nx-1)) }
	gradeY := func(y float64) float64 { return math.Pow(10, decades*y/float64(ny-1)) }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x+1 < nx {
				st.resistor(id(x, y), id(x+1, y), gradeX(float64(x)+0.5))
			}
			if y+1 < ny {
				st.resistor(id(x, y), id(x, y+1), gradeX(float64(x)))
			}
			st.capacitor(id(x, y), gradeY(float64(y)))
		}
	}
	tap := func(p, pn, nn int) int {
		den := pn - 1
		if pn == 1 {
			den = 1
		}
		return (p*(nn-1) + (pn-1)/2) / den
	}
	ports := make([]int, 0, px*py)
	for py_ := 0; py_ < py; py_++ {
		for px_ := 0; px_ < px; px_++ {
			ports = append(ports, id(tap(px_, px, nx), tap(py_, py, ny)))
		}
	}
	return st.system(t, ports)
}

// gradedMeshSystem is a 3D nx×ny×nz mesh with edge resistance graded
// along z and unit node capacitance, ports at the eight corners — the
// substrate-style fixture of the suite.
func gradedMeshSystem(t *testing.T, nx, ny, nz int, decades float64) *System {
	st := newRCStamper(nx * ny * nz)
	id := func(x, y, z int) int { return (z*ny+y)*nx + x }
	grade := func(z float64) float64 { return math.Pow(10, decades*z/float64(nz-1)) }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				if x+1 < nx {
					st.resistor(id(x, y, z), id(x+1, y, z), grade(float64(z)))
				}
				if y+1 < ny {
					st.resistor(id(x, y, z), id(x, y+1, z), grade(float64(z)))
				}
				if z+1 < nz {
					st.resistor(id(x, y, z), id(x, y, z+1), grade(float64(z)+0.5))
				}
				st.capacitor(id(x, y, z), 1)
			}
		}
	}
	var ports []int
	for _, z := range []int{0, nz - 1} {
		for _, y := range []int{0, ny - 1} {
			for _, x := range []int{0, nx - 1} {
				ports = append(ports, id(x, y, z))
			}
		}
	}
	return st.system(t, ports)
}

// comparePointModes reduces sys multi-point with o, then single-point
// at the same reduced order, and measures both against the oracle over
// freqs. Both back ends hand their whole spectrum above the cutoff to
// the one pole selector, so the two models differ only in the subspace
// E′ is projected on. When the single-point spectrum holds fewer poles
// above the cutoff than the multi-point basis produced, the comparison
// equalizes downward so the orders always match exactly.
func comparePointModes(t *testing.T, sys *System, o Options, freqs []float64) (single, multi *ReducedModel, mstats *Stats, errSingle, errMulti float64) {
	t.Helper()
	multi, mstats, err := Reduce(sys, o)
	if err != nil {
		t.Fatalf("multi-point reduce: %v", err)
	}
	so := o
	so.Shifts, so.PortClusters = nil, 0
	so.MaxPoles = multi.K()
	single, _, err = Reduce(sys, so)
	if err != nil {
		t.Fatalf("single-point reduce: %v", err)
	}
	if single.K() < multi.K() {
		mo := o
		mo.MaxPoles = single.K()
		multi, mstats, err = Reduce(sys, mo)
		if err != nil {
			t.Fatalf("multi-point reduce at equalized order %d: %v", single.K(), err)
		}
	}
	if single.K() != multi.K() {
		t.Fatalf("reduced orders differ: single %d, multi %d", single.K(), multi.K())
	}
	if mstats.Shifts != len(mustCanonical(t, o.Shifts)) {
		t.Fatalf("stats.Shifts = %d, want %d", mstats.Shifts, len(mustCanonical(t, o.Shifts)))
	}
	if mstats.BasisColumns <= 0 || mstats.BasisKept <= 0 || mstats.BasisKept > mstats.BasisColumns {
		t.Fatalf("implausible basis accounting: %d generated, %d kept", mstats.BasisColumns, mstats.BasisKept)
	}
	errs, err := OracleMaxRelErrs(sys, []*ReducedModel{single, multi}, freqs)
	if err != nil {
		t.Fatalf("oracle sweep: %v", err)
	}
	if !multi.CheckPassive(1e-9) {
		t.Fatal("multi-point reduced model is not passive")
	}
	return single, multi, mstats, errs[0], errs[1]
}

func mustCanonical(t *testing.T, shifts []float64) []float64 {
	t.Helper()
	cs, err := CanonicalShifts(shifts)
	if err != nil {
		t.Fatalf("canonical shifts: %v", err)
	}
	return cs
}

// slowestFirstErr reduces sys single-point with o's cutoff and no cap,
// keeps the k slowest poles (slowestPoles, the single-point cap before
// the one selector) and returns that model's oracle error over freqs.
func slowestFirstErr(t *testing.T, sys *System, o Options, k int, freqs []float64) float64 {
	t.Helper()
	so := o
	so.Shifts, so.PortClusters, so.MaxPoles = nil, 0, 0
	full, _, err := Reduce(sys, so)
	if err != nil {
		t.Fatalf("uncapped single-point reduce: %v", err)
	}
	errs, err := OracleMaxRelErrs(sys, []*ReducedModel{slowestPoles(full, k)}, freqs)
	if err != nil {
		t.Fatalf("oracle sweep: %v", err)
	}
	return errs[0]
}

// requirePointModes runs comparePointModes on o and fails unless the
// multi-point model is at least as accurate as both single-point
// models of its order: the one selector's and the slowest-first
// reference's.
func requirePointModes(t *testing.T, name string, sys *System, o Options, freqs []float64) {
	t.Helper()
	_, multi, _, errSingle, errMulti := comparePointModes(t, sys, o, freqs)
	errSlowest := slowestFirstErr(t, sys, o, multi.K(), freqs)
	t.Logf("%s: order %d, single+selector %.3e, single slowest-first %.3e, multi %.3e",
		name, multi.K(), errSingle, errSlowest, errMulti)
	if errMulti > errSingle || errMulti > errSlowest {
		t.Fatalf("%s: multi-point %.3e worse than single-point at equal order (selector %.3e, slowest-first %.3e)",
			name, errMulti, errSingle, errSlowest)
	}
}

// requireProjected fails unless the multi-point run built its basis by
// the union and kept fewer than N columns: on the whole-space rule the
// multi-point model is the single-point dense eigenpath under the same
// selector, so a basis comparison would measure nothing.
func requireProjected(t *testing.T, sys *System, st *Stats) {
	t.Helper()
	if st.BasisKept >= sys.N || st.DenseEig {
		t.Fatalf("multi-point basis kept %d of %d internal columns (dense %v); the fixture no longer projects",
			st.BasisKept, sys.N, st.DenseEig)
	}
}

func TestMultiPointOracleLadder(t *testing.T) {
	t.Parallel()
	sys := gradedLadderSystem(t, 64, 3)
	fmax := 0.05
	o := Options{FMax: fmax, Tol: 0.05, Shifts: []float64{0, fmax}, MaxPoles: 6, DenseThreshold: 1000}
	requirePointModes(t, "ladder", sys, o, OracleFreqs(fmax, 3, 7))
}

func TestMultiPointOracleGrid(t *testing.T) {
	t.Parallel()
	sys := gradedGridSystem(t, 12, 12, 2, 2, 2)
	fmax := 0.05
	o := Options{FMax: fmax, Tol: 0.05, Shifts: []float64{0, fmax / 10, fmax}, MaxPoles: 10, DenseThreshold: 1000}
	requirePointModes(t, "grid", sys, o, OracleFreqs(fmax, 3, 7))
}

func TestMultiPointOracleMesh(t *testing.T) {
	t.Parallel()
	sys := gradedMeshSystem(t, 5, 5, 3, 2)
	fmax := 0.05
	o := Options{FMax: fmax, Tol: 0.05, Shifts: []float64{0, fmax}, MaxPoles: 16, DenseThreshold: 1000}
	requirePointModes(t, "mesh", sys, o, OracleFreqs(fmax, 3, 7))
}

// TestMultiPointOracleLadderBasis measures the basis itself: multi-point
// against single-point under the same selector at equal order on the
// graded ladder, whose 6 candidate columns project the 62
// internal nodes. The selector is shared, so the win is the expansion
// points'.
func TestMultiPointOracleLadderBasis(t *testing.T) {
	t.Parallel()
	sys := gradedLadderSystem(t, 64, 3)
	fmax := 0.05
	o := Options{FMax: fmax, Tol: 0.05, Shifts: []float64{0, fmax}, MaxPoles: 6, DenseThreshold: 1000}
	freqs := OracleFreqs(fmax, 3, 7)
	single, _, mstats, errSingle, errMulti := comparePointModes(t, sys, o, freqs)
	requireProjected(t, sys, mstats)
	t.Logf("ladder basis: order %d, single+selector %.3e, multi %.3e", single.K(), errSingle, errMulti)
	if errMulti >= errSingle {
		t.Fatalf("multi-point basis must beat single-point under the same selector: multi %.3e, single %.3e",
			errMulti, errSingle)
	}
}

// TestMultiPointOracleGridBasis is the basis comparison on a 20×20
// graded grid with 16 ports (48 candidate columns on 384 internal
// nodes), plus the port-clustered variant, which thins that union: it
// must report its clusters, keep the order, stay passive and still beat
// single-point. The single-point reference needs every pole above the
// cutoff for the selector to choose from, which the dense eigenpath
// finds in about a second here; on a 40×40 grid it is 1506 of 1584
// poles and close to a minute.
func TestMultiPointOracleGridBasis(t *testing.T) {
	t.Parallel()
	sys := gradedGridSystem(t, 20, 20, 4, 4, 2)
	fmax := 0.05
	o := Options{FMax: fmax, Tol: 0.05, Shifts: []float64{0, fmax}, MaxPoles: 24, DenseThreshold: 1000}
	freqs := OracleFreqs(fmax, 3, 5)
	single, multi, mstats, errSingle, errMulti := comparePointModes(t, sys, o, freqs)
	requireProjected(t, sys, mstats)
	if errMulti >= errSingle {
		t.Fatalf("multi-point basis must beat single-point under the same selector: multi %.3e, single %.3e",
			errMulti, errSingle)
	}

	co := o
	co.PortClusters = 4
	co.MaxPoles = multi.K()
	clustered, cstats, err := Reduce(sys, co)
	if err != nil {
		t.Fatalf("clustered multi-point reduce: %v", err)
	}
	if cstats.PortClusters != 4 {
		t.Fatalf("stats.PortClusters = %d, want 4", cstats.PortClusters)
	}
	if clustered.K() != multi.K() {
		t.Fatalf("clustered order %d differs from unclustered %d", clustered.K(), multi.K())
	}
	if !clustered.CheckPassive(1e-9) {
		t.Fatal("clustered multi-point reduced model is not passive")
	}
	errs, err := OracleMaxRelErrs(sys, []*ReducedModel{clustered}, freqs)
	if err != nil {
		t.Fatalf("oracle sweep: %v", err)
	}
	errClustered := errs[0]
	t.Logf("grid basis: order %d — single+selector %.3e, multi %.3e, clustered multi %.3e",
		single.K(), errSingle, errMulti, errClustered)
	if errClustered >= errSingle {
		t.Fatalf("clustered multi-point must still beat single-point: clustered %.3e, single %.3e",
			errClustered, errSingle)
	}
}

// TestMultiPointOracleWideBand256 is the many-port bench of the pole
// selector: the 256-port wide-band graded grid (the in-package twin of
// `netgen -kind wideband -ports 256`) reduced multi-point at order 48
// and measured against the dense oracle. Its 768 candidate columns
// outnumber the 320 internal nodes, so the run must take the
// whole-space rule — no shifted factorization, no union — and equal the
// single-point model of its order bit for bit. The selector must beat
// the slowest-first reference strictly (the basis comparisons run on
// the ladder and the 20×20 grid above).
func TestMultiPointOracleWideBand256(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("dense 320-node oracle sweep is slow under -short")
	}
	sys := gradedGridSystem(t, 24, 24, 16, 16, 2)
	if sys.M != 256 {
		t.Fatalf("fixture has %d ports, want 256", sys.M)
	}
	fmax := 0.05
	o := Options{FMax: fmax, Tol: 0.05, Shifts: []float64{0, fmax}, MaxPoles: 48, DenseThreshold: 1000}
	freqs := OracleFreqs(fmax, 3, 5)
	single, multi, mstats, _, errMulti := comparePointModes(t, sys, o, freqs)
	if mstats.BasisKept != sys.N || mstats.Stage.ShiftFactorNs != 0 || mstats.Stage.BasisUnionNs != 0 {
		t.Fatalf("wide-band bench skipped no union: kept %d of %d, shift_factor %d ns, basis_union %d ns",
			mstats.BasisKept, sys.N, mstats.Stage.ShiftFactorNs, mstats.Stage.BasisUnionNs)
	}
	pinModelBits(t, "wideband256: whole-space multi-point vs single-point", multi, single)
	errSlowest := slowestFirstErr(t, sys, o, multi.K(), freqs)
	t.Logf("wideband256: order %d — selector %.3e, slowest-first %.3e", multi.K(), errMulti, errSlowest)
	if multi.K() != 48 || errMulti >= errSlowest {
		t.Fatalf("the selector must beat slowest-first at order 48 on the wide-band 256-port bench: order %d, selector %.3e, slowest-first %.3e",
			multi.K(), errMulti, errSlowest)
	}
}

// TestMultiPointOracleAgreesWithIndependentSchur pins the oracle itself
// against the pre-existing dense Schur cross-check on random systems,
// so an oracle bug cannot silently validate the reductions.
func TestMultiPointOracleAgreesWithIndependentSchur(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1811))
	for trial := 0; trial < 10; trial++ {
		sys := randomSystem(rng, 3, 9)
		f := math.Pow(10, -2+3*rng.Float64())
		sv := complex(0, 2*math.Pi*f)
		want := schurY(sys, sv)
		got, err := OracleY(sys, sv)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		scale := cNorm(want)
		for i := 0; i < want.R; i++ {
			for j := 0; j < want.C; j++ {
				if d := cmplx.Abs(got.At(i, j) - want.At(i, j)); d > 1e-9*scale {
					t.Fatalf("trial %d: oracle Y[%d,%d] = %v, schur %v (|Δ| = %.3e)",
						trial, i, j, got.At(i, j), want.At(i, j), d)
				}
			}
		}
	}
}

func TestOracleFreqsSpansBand(t *testing.T) {
	t.Parallel()
	fs := OracleFreqs(1e9, 3, 7)
	if len(fs) != 7 {
		t.Fatalf("got %d freqs, want 7", len(fs))
	}
	if fs[6] != 1e9 {
		t.Fatalf("sweep must end at fmax exactly, got %g", fs[6])
	}
	if math.Abs(fs[0]-1e6) > 1 {
		t.Fatalf("sweep must start 3 decades down, got %g", fs[0])
	}
	for i := 1; i < len(fs); i++ {
		if fs[i] <= fs[i-1] {
			t.Fatalf("sweep not increasing at %d: %g then %g", i, fs[i-1], fs[i])
		}
	}
}
