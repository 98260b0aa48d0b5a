package core

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/sparse"
)

// directSum joins two uncoupled systems into one: ports of a then b,
// internal nodes of a then b. Its reduction and its admittance are the
// direct sums of the halves', so a system above the supernodal kernel
// threshold (512 internal nodes) can be checked against two halves
// below it, which the up-looking kernel factors.
func directSum(a, b *System) *System {
	blk := func(x, y *sparse.CSR) *sparse.CSR {
		out := sparse.NewBuilder(x.Rows+y.Rows, x.Cols+y.Cols)
		for _, part := range []struct {
			m      *sparse.CSR
			r0, c0 int
		}{{x, 0, 0}, {y, x.Rows, x.Cols}} {
			for i := 0; i < part.m.Rows; i++ {
				cols, vals := part.m.Row(i)
				for p, j := range cols {
					out.Add(part.r0+i, part.c0+j, vals[p])
				}
			}
		}
		return out.Build()
	}
	sys, err := NewSystem(blk(a.A, b.A), blk(a.B, b.B), blk(a.Q, b.Q), blk(a.R, b.R), blk(a.D, b.D), blk(a.E, b.E))
	if err != nil {
		panic(err)
	}
	return sys
}

// TestReduceSupernodalMatchesUpLooking reduces a 600-internal-node
// system (supernodal kernel) and its two 300-node uncoupled halves
// (up-looking kernel) and requires the models to agree to tight
// tolerance: the blocked factorization reorders floating-point sums, so
// bit equality is not expected, but the poles must be the union of the
// halves' poles and A′/B′ their block-diagonal sum, to rounding.
func TestReduceSupernodalMatchesUpLooking(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	halves := []*System{randomSystem(rng, 3, 300), randomSystem(rng, 3, 300)}
	sys := directSum(halves[0], halves[1])
	opts := Options{FMax: 1e9, Tol: 0.05, DenseThreshold: 1 << 20}

	sn, snStats, err := Reduce(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if snStats.Supernodes == 0 {
		t.Fatalf("order %d did not take the supernodal kernel", sys.N)
	}
	if snStats.FactorFlops <= 0 || snStats.CholeskyBytes <= 0 {
		t.Fatalf("supernodal stats: flops %g, bytes %d", snStats.FactorFlops, snStats.CholeskyBytes)
	}
	var lambda []float64
	off := 0
	for h, half := range halves {
		up, upStats, err := Reduce(half, opts)
		if err != nil {
			t.Fatal(err)
		}
		if upStats.Supernodes != 0 {
			t.Fatalf("half %d: order %d took the supernodal kernel", h, half.N)
		}
		lambda = append(lambda, up.Lambda...)
		for i := 0; i < half.M; i++ {
			for j := 0; j < half.M; j++ {
				if a, b := sn.A.At(off+i, off+j), up.A.At(i, j); math.Abs(a-b) > 1e-8*(1+math.Abs(b)) {
					t.Fatalf("half %d A(%d,%d): %v supernodal vs %v up-looking", h, i, j, a, b)
				}
				if a, b := sn.B.At(off+i, off+j), up.B.At(i, j); math.Abs(a-b) > 1e-8*(1+math.Abs(b)) {
					t.Fatalf("half %d B(%d,%d): %v supernodal vs %v up-looking", h, i, j, a, b)
				}
			}
		}
		off += half.M
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(lambda)))
	if len(lambda) == 0 {
		t.Fatal("no poles retained: the fixture does not exercise Transform 2")
	}
	if len(sn.Lambda) != len(lambda) {
		t.Fatalf("pole counts diverge: %d supernodal vs %d up-looking", len(sn.Lambda), len(lambda))
	}
	for i := range sn.Lambda {
		if d := math.Abs(sn.Lambda[i] - lambda[i]); d > 1e-9*(1+math.Abs(lambda[i])) {
			t.Fatalf("pole %d: %v supernodal vs %v up-looking", i, sn.Lambda[i], lambda[i])
		}
	}
}

// TestReduceSupernodalDeterministicAcrossGOMAXPROCS extends the
// bit-determinism contract to the supernodal pipeline: parallel panel
// factorization plus the blocked multi-RHS solves of both transforms
// must leave no trace of the worker count in the reduced model.
func TestReduceSupernodalDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sys := randomSystem(rng, 7, 600)
	opts := Options{FMax: 2e9, Tol: 0.05, DenseThreshold: 1 << 20}

	run := func() ([]float64, []float64, []float64, []float64) {
		model, stats, err := Reduce(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Supernodes == 0 {
			t.Fatal("supernodal path not taken")
		}
		return model.Lambda, model.A.Data, model.B.Data, model.R.Data
	}
	old := runtime.GOMAXPROCS(1)
	lamS, aS, bS, rS := run()
	runtime.GOMAXPROCS(4)
	lamP, aP, bP, rP := run()
	runtime.GOMAXPROCS(old)

	bitsEqualSlice(t, "Lambda", lamP, lamS)
	bitsEqualSlice(t, "A", aP, aS)
	bitsEqualSlice(t, "B", bP, bS)
	bitsEqualSlice(t, "R", rP, rS)
}

// TestYSweepSupernodalMatchesSimplicial pins the shared-analysis
// complex path: admittance sweeps of a 560-node system through the
// supernodal LDLᵀ must agree at every frequency point, to rounding, with
// the simplicial evaluation of its two uncoupled halves.
func TestYSweepSupernodalMatchesSimplicial(t *testing.T) {
	freqs := []float64{1e6, 1e8, 1e9}
	r := rand.New(rand.NewSource(55))
	halves := []*System{randomSystem(r, 3, 280), randomSystem(r, 2, 280)}
	sys := directSum(halves[0], halves[1])
	ysSuper, err := sys.YSweep(freqs)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.yPen.an.Supernodal() {
		t.Fatalf("order %d did not take the supernodal kernel", sys.N)
	}
	off := 0
	for h, half := range halves {
		ysPlain, err := half.YSweep(freqs)
		if err != nil {
			t.Fatal(err)
		}
		if half.yPen.an.Supernodal() {
			t.Fatalf("half %d: order %d took the supernodal kernel", h, half.N)
		}
		for k := range freqs {
			for i := 0; i < half.M; i++ {
				for j := 0; j < half.M; j++ {
					gp, gs := ysPlain[k].At(i, j), ysSuper[k].At(off+i, off+j)
					diff := gp - gs
					mag := math.Hypot(real(gp), imag(gp))
					if math.Hypot(real(diff), imag(diff)) > 1e-7*(1+mag) {
						t.Fatalf("half %d freq %d entry (%d,%d): %v simplicial vs %v supernodal", h, k, i, j, gp, gs)
					}
				}
			}
		}
		off += half.M
	}
}
