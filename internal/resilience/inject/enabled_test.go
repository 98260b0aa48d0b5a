//go:build pactcheck

package inject

import (
	"math"
	"testing"
)

func TestArmFiresOnceAtIndex(t *testing.T) {
	s := NewSchedule().Arm(CholPivot, 3)
	Install(s)
	defer Reset()
	for k := 0; k < 3; k++ {
		if ShouldFail(CholPivot, k) {
			t.Fatalf("fired early at index %d", k)
		}
	}
	if !ShouldFail(CholPivot, 3) {
		t.Fatal("did not fire at armed index 3")
	}
	if ShouldFail(CholPivot, 3) {
		t.Fatal("single-shot rule fired twice")
	}
	if got := s.Fired(CholPivot); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
}

func TestArmAnyIndexAndUnlimited(t *testing.T) {
	Install(NewSchedule().ArmN(NewtonIter, -1, -1))
	defer Reset()
	for k := 0; k < 5; k++ {
		if !ShouldFail(NewtonIter, k) {
			t.Fatalf("unlimited any-index rule did not fire at %d", k)
		}
	}
}

func TestPoison(t *testing.T) {
	Install(NewSchedule().ArmPoison(CholPoison, 2, 1, NaN()))
	defer Reset()
	if v := PoisonValue(CholPoison, 0, 7.5); v != 7.5 {
		t.Fatalf("unarmed index poisoned: %g", v)
	}
	if v := PoisonValue(CholPoison, 2, 7.5); !math.IsNaN(v) {
		t.Fatalf("armed index not poisoned: %g", v)
	}
	if v := PoisonValue(CholPoison, 2, 7.5); !(v == 7.5) {
		t.Fatalf("consumed poison rule fired again: %g", v)
	}
}

func TestArmFuncViaVisitAndShouldFail(t *testing.T) {
	calls := 0
	Install(NewSchedule().
		ArmFunc(ParItem, 4, func() { calls++ }).
		ArmFunc(LanczosIter, -1, func() { calls += 10 }))
	defer Reset()
	Visit(ParItem, 3)
	if calls != 0 {
		t.Fatal("func fired at wrong index")
	}
	Visit(ParItem, 4)
	if calls != 1 {
		t.Fatalf("func did not fire exactly once: %d", calls)
	}
	// A func rule reached through ShouldFail runs but reports no failure.
	if ShouldFail(LanczosIter, 0) {
		t.Fatal("func rule must not report failure")
	}
	if calls != 11 {
		t.Fatalf("ShouldFail did not run the func rule: %d", calls)
	}
}

func TestVisitDoesNotConsumeFailRules(t *testing.T) {
	Install(NewSchedule().Arm(LanczosIter, 5))
	defer Reset()
	Visit(LanczosIter, 5) // must not eat the fail rule
	if !ShouldFail(LanczosIter, 5) {
		t.Fatal("Visit consumed a fail rule")
	}
}

func TestFromSeedReproducible(t *testing.T) {
	a := FromSeed(42, 100, CholPivot, LanczosIter)
	b := FromSeed(42, 100, CholPivot, LanczosIter)
	for _, p := range []Point{CholPivot, LanczosIter} {
		// The schedules must arm identical indices: walk indices until one
		// fires and compare.
		Install(a)
		ia := -1
		for k := 0; k < 100; k++ {
			if ShouldFail(p, k) {
				ia = k
				break
			}
		}
		Install(b)
		ib := -1
		for k := 0; k < 100; k++ {
			if ShouldFail(p, k) {
				ib = k
				break
			}
		}
		Reset()
		if ia != ib || ia < 0 {
			t.Fatalf("point %s: seeded schedules diverge (%d vs %d)", p, ia, ib)
		}
	}
}

// TestCatalogPinsCount pins the size and membership of the injection
// catalog: fifteen points, one per documented site. Adding a point
// without extending Catalog() (and the DESIGN.md §9 table plus a seeded
// sweep) fails here.
func TestCatalogPinsCount(t *testing.T) {
	cat := Catalog()
	if len(cat) != 15 {
		t.Fatalf("catalog has %d points, want 15 (update Catalog, DESIGN.md §9 and the seeded sweeps)", len(cat))
	}
	want := map[Point]bool{
		CholPivot: true, CholPoison: true, CholComplexPivot: true, CholDAGTask: true,
		LanczosIter: true, NewtonIter: true, SimSparseLUPivot: true, SimACComplexSolve: true,
		ParItem: true, SvcAdmit: true, SvcCacheStore: true, SvcFlightLeader: true,
		MPShiftFactor: true, StampAssemble: true, DenseInvIter: true,
	}
	for _, p := range cat {
		if !want[p] {
			t.Fatalf("catalog lists unknown point %q", p)
		}
		delete(want, p)
	}
	for p := range want {
		t.Errorf("catalog is missing point %q", p)
	}
	for _, p := range []Point{SvcAdmit, SvcCacheStore, SvcFlightLeader} {
		found := false
		for _, q := range cat {
			if p == q {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("service point %q missing from catalog", p)
		}
	}
}

// TestFromSeedCoversSeedableCatalog proves every seedable catalog point
// — the full set minus the func-only par.item — is reachable from a
// seeded sweep: FromSeed over Seedable() arms exactly one live rule per
// point, and walking the armed span fires each of them (through
// PoisonValue for the poison point, ShouldFail for the rest). This is
// the coverage guarantee the nightly 200-seed sweep rests on; a point
// FromSeed silently skipped would never be drilled by it.
func TestFromSeedCoversSeedableCatalog(t *testing.T) {
	const span = 25
	seedable := Seedable()
	if want := len(Catalog()) - 1; len(seedable) != want {
		t.Fatalf("Seedable lists %d points, want %d (catalog minus par.item)", len(seedable), want)
	}
	for _, p := range seedable {
		if p == ParItem {
			t.Fatalf("func-only point %q must not be seedable", p)
		}
	}
	s := FromSeed(99, span, seedable...)
	Install(s)
	defer Reset()
	for _, p := range seedable {
		fired := false
		for k := 0; k < span && !fired; k++ {
			if p == CholPoison {
				v := PoisonValue(p, k, 1.5)
				fired = math.IsNaN(v) || math.IsInf(v, 0)
				continue
			}
			fired = ShouldFail(p, k)
		}
		if !fired {
			t.Errorf("point %q not reachable from the seeded sweep over [0,%d)", p, span)
		}
		if got := s.Fired(p); fired && got != 1 {
			t.Errorf("point %q fired %d times, want exactly 1", p, got)
		}
	}
}

func TestNoScheduleIsPassThrough(t *testing.T) {
	Reset()
	if ShouldFail(CholPivot, 0) {
		t.Fatal("no schedule must mean no failures")
	}
	if v := PoisonValue(CholPoison, 0, 1.25); v != 1.25 {
		t.Fatalf("no schedule must pass values through, got %g", v)
	}
}

// TestFromSeedArmsPoisonForPoisonPoints pins the kind-awareness of
// seeded schedules: chol.poison must be armed as a poison rule (a
// non-finite value surfacing through PoisonValue), never as a fail rule
// a ShouldFail site would consume.
func TestFromSeedArmsPoisonForPoisonPoints(t *testing.T) {
	const span = 50
	Install(FromSeed(7, span, CholPoison))
	defer Reset()
	for k := 0; k < span; k++ {
		if ShouldFail(CholPoison, k) {
			t.Fatalf("seeded poison point armed as a fail rule at index %d", k)
		}
	}
	armed := -1
	for k := 0; k < span; k++ {
		v := PoisonValue(CholPoison, k, 1.25)
		if v == 1.25 {
			continue
		}
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			t.Fatalf("poison at index %d is %v, want NaN or ±Inf", k, v)
		}
		armed = k
		break
	}
	if armed < 0 {
		t.Fatal("seeded schedule armed no poison for chol.poison")
	}
	// Replaying the seed must arm the identical index and value class.
	Install(FromSeed(7, span, CholPoison))
	if v := PoisonValue(CholPoison, armed, 1.25); v == 1.25 {
		t.Fatalf("replayed seed did not arm index %d", armed)
	}
}
