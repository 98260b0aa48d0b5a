package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/dense"
	"repro/internal/lanczos"
	"repro/internal/order"
	"repro/internal/sparse"
)

// randomRC builds a random connected RC network on tot nodes plus ground
// and returns its grounded G, C matrices. A resistor spanning tree
// guarantees every node a DC path to ground, the paper's positive
// definiteness condition for D.
func randomRC(rng *rand.Rand, tot int) (g, c *sparse.CSR) {
	gb := sparse.NewBuilder(tot, tot)
	cb := sparse.NewBuilder(tot, tot)
	stampG := func(i, j int, cond float64) {
		// j == -1 means ground.
		if i >= 0 {
			gb.Add(i, i, cond)
		}
		if j >= 0 {
			gb.Add(j, j, cond)
		}
		if i >= 0 && j >= 0 {
			gb.AddSym(i, j, -cond)
		}
	}
	stampC := func(i, j int, cap float64) {
		if i >= 0 {
			cb.Add(i, i, cap)
		}
		if j >= 0 {
			cb.Add(j, j, cap)
		}
		if i >= 0 && j >= 0 {
			cb.AddSym(i, j, -cap)
		}
	}
	// Spanning tree of resistors: node i connects to a random earlier node
	// (or ground for node 0).
	stampG(0, -1, 0.5+rng.Float64())
	for i := 1; i < tot; i++ {
		stampG(i, rng.Intn(i), 0.5+rng.Float64())
	}
	// Extra resistors and capacitors.
	for k := 0; k < 2*tot; k++ {
		i, j := rng.Intn(tot), rng.Intn(tot)
		if i != j {
			stampG(i, j, rng.Float64())
		}
	}
	for k := 0; k < 2*tot; k++ {
		i := rng.Intn(tot)
		if rng.Intn(2) == 0 {
			stampC(i, -1, 0.1+rng.Float64())
		} else if j := rng.Intn(tot); j != i {
			stampC(i, j, 0.1*rng.Float64())
		}
	}
	// Make sure C is nonzero even in degenerate draws.
	stampC(tot-1, -1, 0.3)
	// Zero-entry padding so patterns differ between G and C.
	return gb.Build(), cb.Build()
}

func randomSystem(rng *rand.Rand, m, n int) *System {
	g, c := randomRC(rng, m+n)
	ports := make([]int, m)
	for i := range ports {
		ports[i] = i
	}
	sys, err := Partition(g, c, ports)
	if err != nil {
		panic(err)
	}
	return sys
}

// schurY computes Y(s) by dense Schur complement — an implementation
// independent of System.Y for cross-checking.
func schurY(sys *System, s complex128) *dense.CMat {
	m, n := sys.M, sys.N
	di := dense.NewC(n, n)
	dd, ed := sys.D.Dense(), sys.E.Dense()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			di.Set(i, j, complex(dd[i][j], 0)+s*complex(ed[i][j], 0))
		}
	}
	f, err := dense.FactorCLU(di)
	if err != nil {
		panic(err)
	}
	qd, rd := sys.Q.Dense(), sys.R.Dense()
	ad, bd := sys.A.Dense(), sys.B.Dense()
	y := dense.NewC(m, m)
	for j := 0; j < m; j++ {
		col := make([]complex128, n)
		for i := 0; i < n; i++ {
			col[i] = complex(qd[i][j], 0) + s*complex(rd[i][j], 0)
		}
		f.Solve(col)
		for i := 0; i < m; i++ {
			acc := complex(ad[i][j], 0) + s*complex(bd[i][j], 0)
			for kk := 0; kk < n; kk++ {
				acc -= (complex(qd[kk][i], 0) + s*complex(rd[kk][i], 0)) * col[kk]
			}
			y.Set(i, j, acc)
		}
	}
	return y
}

func cNorm(y *dense.CMat) float64 {
	maxv := 0.0
	for _, v := range y.Data {
		if a := cmplx.Abs(v); a > maxv {
			maxv = a
		}
	}
	return maxv
}

func TestPartitionFullRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(51))
	g, c := randomRC(rng, 12)
	sys, err := Partition(g, c, []int{0, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if sys.M != 3 || sys.N != 9 {
		t.Fatalf("M=%d N=%d, want 3, 9", sys.M, sys.N)
	}
	gf, cf := sys.Full()
	// Full() reassembles in port-first order; compare against the same
	// permutation of the originals.
	perm := []int{0, 3, 7, 1, 2, 4, 5, 6, 8, 9, 10, 11}
	gp, cp := g.PermuteSym(perm), c.PermuteSym(perm)
	dg, dc := gf.Dense(), cf.Dense()
	wg, wc := gp.Dense(), cp.Dense()
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if math.Abs(dg[i][j]-wg[i][j]) > 1e-14 || math.Abs(dc[i][j]-wc[i][j]) > 1e-14 {
				t.Fatalf("Full() mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestPartitionRejectsBadPorts(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(52))
	g, c := randomRC(rng, 5)
	if _, err := Partition(g, c, []int{0, 0}); err == nil {
		t.Error("duplicate port accepted")
	}
	if _, err := Partition(g, c, []int{9}); err == nil {
		t.Error("out-of-range port accepted")
	}
}

func TestYAgainstSchur(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		sys := randomSystem(rng, 2+rng.Intn(3), 5+rng.Intn(15))
		for _, s := range []complex128{0, complex(0, 1), complex(0, 10), complex(0.5, 3)} {
			got, err := sys.Y(s)
			if err != nil {
				t.Fatal(err)
			}
			want := schurY(sys, s)
			if d := dense.MaxAbsDiff(got, want); d > 1e-8*(1+cNorm(want)) {
				t.Fatalf("trial %d s=%v: |Y - Yschur| = %g", trial, s, d)
			}
		}
	}
}

// TestYUnionCancellation evaluates Y(s) on a pencil whose D and E
// entries cancel at one position (D₀₁ = −E₀₁): the union pattern the
// pencil's ordering and factorization share must still hold it, since
// D + sE is nonzero there at every s ≠ 1.
func TestYUnionCancellation(t *testing.T) {
	t.Parallel()
	build := func(n, m int, entries [][3]float64) *sparse.CSR {
		b := sparse.NewBuilder(n, m)
		for _, e := range entries {
			b.Add(int(e[0]), int(e[1]), e[2])
		}
		return b.Build()
	}
	sys, err := NewSystem(
		build(1, 1, [][3]float64{{0, 0, 1}}),
		build(1, 1, [][3]float64{{0, 0, 1e-3}}),
		build(3, 1, [][3]float64{{0, 0, -0.5}}),
		build(3, 1, [][3]float64{{0, 0, -0.1}}),
		build(3, 3, [][3]float64{{0, 0, 2}, {1, 1, 2}, {2, 2, 2}, {0, 1, 0.5}, {1, 0, 0.5}, {1, 2, -0.3}, {2, 1, -0.3}}),
		build(3, 3, [][3]float64{{0, 0, 1}, {1, 1, 1}, {2, 2, 1}, {0, 1, -0.5}, {1, 0, -0.5}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []complex128{0, complex(0, 0.3), complex(0, 2), complex(0.5, 3)} {
		got, err := sys.Y(s)
		if err != nil {
			t.Fatalf("s=%v: %v", s, err)
		}
		want := schurY(sys, s)
		if d := dense.MaxAbsDiff(got, want); d > 1e-12*(1+cNorm(want)) {
			t.Fatalf("s=%v: |Y - Yschur| = %g", s, d)
		}
	}
}

func TestCutoffFactor(t *testing.T) {
	t.Parallel()
	if f := CutoffFactor(0.05); math.Abs(f-3.04) > 0.01 {
		t.Errorf("CutoffFactor(0.05) = %v, want 3.04 (paper Section 5)", f)
	}
	if f := CutoffFactor(0.10); math.Abs(f-2.06) > 0.01 {
		t.Errorf("CutoffFactor(0.10) = %v, want about 2.06", f)
	}
}

// keepAllFMax returns an FMax so high that every pole of the system is
// retained, making the reduction exact.
const keepAllFMax = 1e9

func TestReduceExactWhenAllPolesKept(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 8; trial++ {
		sys := randomSystem(rng, 2+rng.Intn(3), 4+rng.Intn(10))
		model, stats, err := Reduce(sys, Options{FMax: keepAllFMax, Tol: 0.05})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !stats.DenseEig {
			t.Fatalf("trial %d: expected dense eigenpath for small n", trial)
		}
		for _, s := range []complex128{0, complex(0, 0.3), complex(0, 2), complex(0, 25)} {
			want, err := sys.Y(s)
			if err != nil {
				t.Fatal(err)
			}
			got := model.Y(s)
			if d := dense.MaxAbsDiff(got, want); d > 1e-6*(1+cNorm(want)) {
				t.Fatalf("trial %d s=%v: exact reduction error %g", trial, s, d)
			}
		}
	}
}

func TestReduceDCAndFirstMomentExact(t *testing.T) {
	t.Parallel()
	// Even when poles are dropped, Y(0) and dY/ds(0) are preserved
	// exactly (A′ and B′ are the first two moments).
	rng := rand.New(rand.NewSource(55))
	sys := randomSystem(rng, 3, 20)
	model, _, err := Reduce(sys, Options{FMax: 1e-4, Tol: 0.05}) // drop everything
	if err != nil {
		t.Fatal(err)
	}
	if model.K() != 0 {
		t.Logf("kept %d poles at extreme cutoff", model.K())
	}
	y0, err := sys.Y(0)
	if err != nil {
		t.Fatal(err)
	}
	if d := dense.MaxAbsDiff(model.Y(0), y0); d > 1e-9*(1+cNorm(y0)) {
		t.Fatalf("DC mismatch %g", d)
	}
	// First moment by finite difference on the exact admittance.
	h := 1e-6
	yh, err := sys.Y(complex(h, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sys.M; i++ {
		for j := 0; j < sys.M; j++ {
			want := real(yh.At(i, j)-y0.At(i, j)) / h
			got := model.B.At(i, j)
			if math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
				t.Fatalf("B′(%d,%d) = %v, want %v (finite difference)", i, j, got, want)
			}
		}
	}
}

func TestReduceMeetsTolerance(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(56))
	for trial := 0; trial < 6; trial++ {
		sys := randomSystem(rng, 2, 25)
		fmax := 0.05 // rad-normalized units; poles of these networks are O(1)
		tol := 0.05
		model, _, err := Reduce(sys, Options{FMax: fmax, Tol: tol})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []float64{fmax / 10, fmax / 3, fmax} {
			s := complex(0, 2*math.Pi*f)
			want, err := sys.Y(s)
			if err != nil {
				t.Fatal(err)
			}
			got := model.Y(s)
			// The per-pole tolerance bounds each dropped term; allow the
			// aggregate a small factor.
			if d := dense.MaxAbsDiff(got, want); d > 3*tol*cNorm(want) {
				t.Fatalf("trial %d f=%g: error %g exceeds budget %g", trial, f, d, 3*tol*cNorm(want))
			}
		}
	}
}

func TestReduceLanczosMatchesDense(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 5; trial++ {
		sys := randomSystem(rng, 3, 40)
		fmax := 0.08
		md, _, err := Reduce(sys, Options{FMax: fmax, DenseThreshold: 100})
		if err != nil {
			t.Fatal(err)
		}
		ml, statsL, err := Reduce(sys, Options{FMax: fmax, DenseThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		if statsL.DenseEig {
			t.Fatal("expected Lanczos path")
		}
		if md.K() != ml.K() {
			t.Fatalf("trial %d: dense kept %d poles, Lanczos kept %d", trial, md.K(), ml.K())
		}
		for i := range md.Lambda {
			if math.Abs(md.Lambda[i]-ml.Lambda[i]) > 1e-6*md.Lambda[i] {
				t.Fatalf("trial %d: pole %d mismatch: %v vs %v", trial, i, md.Lambda[i], ml.Lambda[i])
			}
		}
		for _, s := range []complex128{complex(0, 0.1), complex(0, 0.4)} {
			if d := dense.MaxAbsDiff(md.Y(s), ml.Y(s)); d > 1e-6*(1+cNorm(md.Y(s))) {
				t.Fatalf("trial %d: Y mismatch between dense and Lanczos paths: %g", trial, d)
			}
		}
	}
}

func TestReduceTwoPassAgrees(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(58))
	sys := randomSystem(rng, 2, 45)
	fmax := 0.08
	ref, _, err := Reduce(sys, Options{FMax: fmax, DenseThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	two, _, err := Reduce(sys, Options{FMax: fmax, DenseThreshold: -1, TwoPass: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref.K() != two.K() {
		t.Fatalf("two-pass kept %d poles, dense %d", two.K(), ref.K())
	}
	s := complex(0, 2*math.Pi*fmax)
	if d := dense.MaxAbsDiff(ref.Y(s), two.Y(s)); d > 1e-5*(1+cNorm(ref.Y(s))) {
		t.Fatalf("two-pass Y mismatch %g", d)
	}
}

func TestReducePassivity(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := randomSystem(rng, 1+rng.Intn(4), 3+rng.Intn(20))
		model, _, err := Reduce(sys, Options{FMax: 0.01 + rng.Float64()})
		if err != nil {
			return false
		}
		return model.CheckPassive(1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestReducePolesAreRealNegative(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(59))
	sys := randomSystem(rng, 2, 30)
	model, _, err := Reduce(sys, Options{FMax: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range model.Lambda {
		if !(l > 0) || math.IsNaN(l) {
			t.Fatalf("retained λ = %v must be positive (pole −1/λ real negative)", l)
		}
	}
	for _, f := range model.PoleFreqs() {
		if !(f > 0) {
			t.Fatalf("pole frequency %v must be positive", f)
		}
	}
}

func TestReduceNoCacheMatchesCache(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(60))
	sys := randomSystem(rng, 3, 25)
	withCache, s1, err := Reduce(sys, Options{FMax: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	noCache, s2, err := Reduce(sys, Options{FMax: 0.05, XCacheBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !s1.XCached || s2.XCached {
		t.Fatalf("cache flags wrong: %v %v", s1.XCached, s2.XCached)
	}
	if s2.Solves <= s1.Solves {
		t.Errorf("column recomputation should use more solves (%d vs %d)", s2.Solves, s1.Solves)
	}
	sEval := complex(0, 0.2)
	if d := dense.MaxAbsDiff(withCache.Y(sEval), noCache.Y(sEval)); d > 1e-10*(1+cNorm(withCache.Y(sEval))) {
		t.Fatalf("cache/no-cache mismatch %g", d)
	}
}

func TestReduceOrderings(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(61))
	sys := randomSystem(rng, 2, 30)
	var ref *ReducedModel
	for _, m := range []order.Method{order.MinimumDegree, order.RCM, order.Natural} {
		model, _, err := Reduce(sys, Options{FMax: 0.05, Ordering: m})
		if err != nil {
			t.Fatalf("ordering %v: %v", m, err)
		}
		if ref == nil {
			ref = model
			continue
		}
		if model.K() != ref.K() {
			t.Fatalf("ordering %v kept %d poles, want %d", m, model.K(), ref.K())
		}
		s := complex(0, 0.3)
		if d := dense.MaxAbsDiff(model.Y(s), ref.Y(s)); d > 1e-7*(1+cNorm(ref.Y(s))) {
			t.Fatalf("ordering %v: Y mismatch %g", m, d)
		}
	}
}

func TestReduceLanczosModes(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(62))
	sys := randomSystem(rng, 2, 50)
	ref, _, err := Reduce(sys, Options{FMax: 0.08, DenseThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []lanczos.Mode{lanczos.Selective, lanczos.Full} {
		model, _, err := Reduce(sys, Options{FMax: 0.08, DenseThreshold: -1, LanczosMode: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if model.K() != ref.K() {
			t.Fatalf("mode %v kept %d poles, want %d", mode, model.K(), ref.K())
		}
	}
}

func TestReduceMaxPoles(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(63))
	sys := randomSystem(rng, 2, 20)
	for _, path := range []struct {
		name  string
		dense int
	}{{"dense", 0}, {"lanczos", -1}} {
		full, _, err := Reduce(sys, Options{FMax: keepAllFMax, DenseThreshold: path.dense})
		if err != nil {
			t.Fatal(err)
		}
		model, _, err := Reduce(sys, Options{FMax: keepAllFMax, DenseThreshold: path.dense, MaxPoles: 2})
		if err != nil {
			t.Fatal(err)
		}
		if full.K() <= 2 || model.K() != 2 {
			t.Fatalf("%s: kept %d of %d poles under a cap of 2", path.name, model.K(), full.K())
		}
		// The two poles with the largest band-edge score (poleScores) must
		// be the ones kept, in descending λ.
		vals, rk := selectStrongestPoles(full.Lambda, full.R, 2, keepAllFMax)
		pinModelBits(t, path.name+": MaxPoles 2 vs top 2 by poleScores", model,
			&ReducedModel{M: full.M, Lambda: vals, A: full.A, B: full.B, R: rk})
	}
}

func TestReduceZeroInternal(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(64))
	g, c := randomRC(rng, 3)
	sys, err := Partition(g, c, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := Reduce(sys, Options{FMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	if model.K() != 0 {
		t.Fatal("no internal nodes must give no poles")
	}
	want, err := sys.Y(complex(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if d := dense.MaxAbsDiff(model.Y(complex(0, 5)), want); d > 1e-10*(1+cNorm(want)) {
		t.Fatalf("portless-internal mismatch %g", d)
	}
}

func TestReduceRejectsBadOptions(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(65))
	sys := randomSystem(rng, 2, 5)
	for _, o := range []Options{
		{},
		{FMax: math.NaN()},
		{FMax: math.Inf(1)},
		{FMax: 1, Tol: math.NaN()},
		{FMax: 1, PortClusters: 2},
	} {
		if _, _, err := Reduce(sys, o); err == nil {
			t.Errorf("%+v accepted", o)
		}
		if _, _, err := Transform1(sys, o); err == nil {
			t.Errorf("Transform1 accepted %+v", o)
		}
	}
}

// TestResolveDefaults pins every zero-value default Resolve fills in. In
// particular a zero XCacheBudget is the 512 MiB default, not "no cache":
// only a negative budget disables the X column cache.
func TestResolveDefaults(t *testing.T) {
	t.Parallel()
	got, err := Options{FMax: 1}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := Options{FMax: 1, Tol: 0.05, DenseThreshold: 96, XCacheBudget: 512 << 20,
		Seed: 1, ShiftMoments: 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Resolve() = %+v, want %+v", got, want)
	}
	off, err := Options{FMax: 1, XCacheBudget: -1}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if off.XCacheBudget != -1 {
		t.Fatalf("negative XCacheBudget resolved to %d", off.XCacheBudget)
	}
}

func TestMatricesRealizationMatchesY(t *testing.T) {
	t.Parallel()
	// The realized (m+k) matrices must reproduce the reduced Y(s) via the
	// Schur complement, i.e. realization is exact.
	rng := rand.New(rand.NewSource(66))
	sys := randomSystem(rng, 2, 15)
	model, _, err := Reduce(sys, Options{FMax: keepAllFMax})
	if err != nil {
		t.Fatal(err)
	}
	g, c := model.Matrices()
	mm, k := model.M, model.K()
	if k == 0 {
		t.Skip("no poles retained in this draw")
	}
	for _, s := range []complex128{complex(0, 0.2), complex(0, 3)} {
		// Schur on the realized dense matrices.
		di := dense.NewC(k, k)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				di.Set(i, j, complex(g.At(mm+i, mm+j), 0)+s*complex(c.At(mm+i, mm+j), 0))
			}
		}
		f, err := dense.FactorCLU(di)
		if err != nil {
			t.Fatal(err)
		}
		y := dense.NewC(mm, mm)
		for j := 0; j < mm; j++ {
			col := make([]complex128, k)
			for i := 0; i < k; i++ {
				col[i] = complex(g.At(mm+i, j), 0) + s*complex(c.At(mm+i, j), 0)
			}
			f.Solve(col)
			for i := 0; i < mm; i++ {
				acc := complex(g.At(i, j), 0) + s*complex(c.At(i, j), 0)
				for kk := 0; kk < k; kk++ {
					acc -= (complex(g.At(mm+kk, i), 0) + s*complex(c.At(mm+kk, i), 0)) * col[kk]
				}
				y.Set(i, j, acc)
			}
		}
		if d := dense.MaxAbsDiff(y, model.Y(s)); d > 1e-8*(1+cNorm(y)) {
			t.Fatalf("realization mismatch %g at s=%v", d, s)
		}
	}
}

func TestSparsifyPreservesNND(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(8)
		b := dense.New(n, n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a := dense.Mul(b.T(), b) // NND
		before := a.Clone()
		dropped := Sparsify(a, 0.2)
		if !dense.IsNonNegDefinite(a, 1e-9) {
			t.Fatalf("trial %d: Sparsify broke non-negative definiteness", trial)
		}
		if dropped == 0 {
			continue
		}
		// Dropped entries must be zero and diagonal must not decrease.
		for i := 0; i < n; i++ {
			if a.At(i, i) < before.At(i, i)-1e-12 {
				t.Fatal("diagonal decreased")
			}
		}
	}
}

func TestRCStats(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(68))
	sys := randomSystem(rng, 2, 10)
	nodes, rs, cs := sys.RCStats()
	if nodes != 12 || rs <= 0 || cs <= 0 {
		t.Fatalf("RCStats = %d nodes, %d R, %d C", nodes, rs, cs)
	}
}

func TestResiduePruning(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(91))
	sys := randomSystem(rng, 2, 25)
	fmax := 0.05
	full, sFull, err := Reduce(sys, Options{FMax: fmax})
	if err != nil {
		t.Fatal(err)
	}
	// A tiny threshold must prune nothing.
	same, s0, err := Reduce(sys, Options{FMax: fmax, ResiduePruneTol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	if same.K() != full.K() || s0.PolesPruned != 0 {
		t.Fatalf("tiny threshold pruned %d poles", s0.PolesPruned)
	}
	// A moderate threshold may prune; the model must stay passive and
	// within the combined error budget below fmax.
	pruned, sp, err := Reduce(sys, Options{FMax: fmax, ResiduePruneTol: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.K() > full.K() {
		t.Fatal("pruning added poles?")
	}
	// PolesFound counts the poles above λ_c before the threshold, which
	// the uncapped, unpruned run keeps all of.
	if sFull.PolesFound != full.K() || sp.PolesFound != full.K() || pruned.K() != sp.PolesFound-sp.PolesPruned {
		t.Fatalf("PolesFound %d (unpruned %d, K %d), K %d after pruning %d",
			sp.PolesFound, sFull.PolesFound, full.K(), pruned.K(), sp.PolesPruned)
	}
	if !pruned.CheckPassive(1e-9) {
		t.Fatal("pruned model lost passivity")
	}
	for _, f := range []float64{fmax / 5, fmax} {
		s := complex(0, 2*math.Pi*f)
		want, err := sys.Y(s)
		if err != nil {
			t.Fatal(err)
		}
		got := pruned.Y(s)
		// Budget: the dropped-pole tolerance plus one prune tolerance per
		// pruned pole.
		budget := (3*0.05 + 0.01*float64(sp.PolesPruned+1)) * cNorm(want)
		if d := dense.MaxAbsDiff(got, want); d > budget {
			t.Fatalf("f=%g: pruned model error %g exceeds %g", f, d, budget)
		}
	}
}

func TestModelStringAndTransimpedance(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(95))
	sys := randomSystem(rng, 2, 8)
	model, _, err := Reduce(sys, Options{FMax: keepAllFMax})
	if err != nil {
		t.Fatal(err)
	}
	if s := model.String(); s == "" {
		t.Error("empty String()")
	}
	// Column 1 of Z = Y⁻¹, entry by entry, must solve Y·z = e₁.
	y, err := sys.Y(complex(0, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	z := make([]complex128, y.R)
	for i := range z {
		if z[i], err = TransimpedanceOf(y, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := range z {
		var acc complex128
		for k := range z {
			acc += y.At(i, k) * z[k]
		}
		want := complex(0, 0)
		if i == 1 {
			want = 1
		}
		if cmplx.Abs(acc-want) > 1e-12 {
			t.Fatalf("(Y·Z)[%d][1] = %v, want %v", i, acc, want)
		}
	}
}

func TestReducePureResistive(t *testing.T) {
	t.Parallel()
	// E = 0 (no capacitors): no poles exist; the reduction is exactly the
	// DC Schur complement.
	rng := rand.New(rand.NewSource(96))
	gb := sparse.NewBuilder(12, 12)
	gb.Add(0, 0, 1)
	for i := 1; i < 12; i++ {
		gb.Add(i, i, 0.5)
		gb.AddSym(i, rng.Intn(i), -0.4)
		gb.Add(i, i, 0.4)
		gb.Add(rng.Intn(i), rng.Intn(i)+0, 0) // no-op keeps builder exercised
	}
	g := gb.Build()
	c := sparse.Zero(12, 12)
	sys, err := Partition(g, c, []int{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := Reduce(sys, Options{FMax: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if model.K() != 0 {
		t.Fatalf("resistive network produced %d poles", model.K())
	}
	want, err := sys.Y(0)
	if err != nil {
		t.Fatal(err)
	}
	if d := dense.MaxAbsDiff(model.Y(0), want); d > 1e-10*(1+cNorm(want)) {
		t.Fatalf("DC mismatch %g", d)
	}
	// B' of a capacitor-free network must vanish.
	if model.B.MaxAbs() > 1e-15 {
		t.Fatalf("B' = %v for a resistive network", model.B.MaxAbs())
	}
}

func TestPartitionZeroPorts(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(97))
	g, c := randomRC(rng, 6)
	sys, err := Partition(g, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys.M != 0 || sys.N != 6 {
		t.Fatalf("system %d/%d", sys.M, sys.N)
	}
	model, _, err := Reduce(sys, Options{FMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	if model.M != 0 {
		t.Fatal("portless model has ports")
	}
}

func TestSParamsKnownValues(t *testing.T) {
	t.Parallel()
	z0 := 50.0
	mk := func(y float64) *dense.CMat {
		m := dense.NewC(1, 1)
		m.Set(0, 0, complex(y, 0))
		return m
	}
	s, err := SParams(mk(1/z0), z0) // matched
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(s.At(0, 0)) > 1e-12 {
		t.Fatalf("matched load S11 = %v, want 0", s.At(0, 0))
	}
	s, err = SParams(mk(0), z0) // open
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(s.At(0, 0)-1) > 1e-12 {
		t.Fatalf("open S11 = %v, want 1", s.At(0, 0))
	}
	s, err = SParams(mk(2/z0), z0)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(s.At(0, 0)+1.0/3) > 1e-12 {
		t.Fatalf("S11 = %v, want -1/3", s.At(0, 0))
	}
	if _, err := SParams(mk(1), -1); err == nil {
		t.Error("negative z0 accepted")
	}
}

// TestSParamsPassiveContraction: scattering of a passive network is a
// contraction — for any incident wave a, the reflected wave S·a is no
// larger. Checked on reduced models across random networks and
// frequencies.
func TestSParamsPassiveContraction(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := randomSystem(rng, 1+rng.Intn(3), 3+rng.Intn(12))
		model, _, err := Reduce(sys, Options{FMax: 0.01 + rng.Float64()})
		if err != nil {
			return false
		}
		w := rng.Float64() * 10
		y := model.Y(complex(0, w))
		s, err := SParams(y, 0.1+10*rng.Float64())
		if err != nil {
			return false
		}
		m := model.M
		a := make([]complex128, m)
		na := 0.0
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			na += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
		}
		nb := 0.0
		for i := 0; i < m; i++ {
			var acc complex128
			for j := 0; j < m; j++ {
				acc += s.At(i, j) * a[j]
			}
			nb += real(acc)*real(acc) + imag(acc)*imag(acc)
		}
		return nb <= na*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTransformedStatsAccessor(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(99))
	sys := randomSystem(rng, 2, 6)
	tr, st, err := Transform1(sys, Options{FMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats() != st {
		t.Fatal("Stats() must return the shared statistics")
	}
	if _, _, err := Reduce(sys, Options{FMax: -1}); err == nil {
		t.Fatal("negative FMax accepted")
	}
}

func TestCutoffFactorPanics(t *testing.T) {
	t.Parallel()
	for _, bad := range []float64{0, 1, -0.2, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CutoffFactor(%v) did not panic", bad)
				}
			}()
			CutoffFactor(bad)
		}()
	}
}

func TestYSweepMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	sys := randomSystem(rng, 3, 30)
	freqs := []float64{0.01, 0.03, 0.1, 0.3, 1, 3}
	procs := runtime.GOMAXPROCS(1)
	serial, err := sys.YSweep(freqs)
	runtime.GOMAXPROCS(4)
	parallel, perr := sys.YSweep(freqs)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		t.Fatal(err)
	}
	if perr != nil {
		t.Fatal(perr)
	}
	for k := range freqs {
		if d := dense.MaxAbsDiff(serial[k], parallel[k]); d > 0 {
			t.Fatalf("f=%g: parallel result differs by %g", freqs[k], d)
		}
	}
	// Spot check against direct evaluation.
	direct, err := sys.Y(complex(0, 2*math.Pi*freqs[2]))
	if err != nil {
		t.Fatal(err)
	}
	if d := dense.MaxAbsDiff(serial[2], direct); d > 0 {
		t.Fatalf("sweep vs direct differ by %g", d)
	}
}

func TestReduceRejectsBadTol(t *testing.T) {
	t.Parallel()
	sys := randomSystem(rand.New(rand.NewSource(42)), 3, 12)
	for _, tol := range []float64{-0.1, 1, 1.5} {
		if _, _, err := Reduce(sys, Options{FMax: 1e9, Tol: tol}); err == nil {
			t.Errorf("Reduce accepted Tol = %g", tol)
		}
		tr, _, err := Transform1(sys, Options{FMax: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Transform2(Options{FMax: 1e9, Tol: tol}); err == nil {
			t.Errorf("Transform2 accepted Tol = %g", tol)
		}
	}
}
