//go:build pactcheck

package chol

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/order"
	"repro/internal/resilience/inject"
)

// TestInjectedDAGTaskFailureDrainsDeterministically drives the
// chol.dag.task point: a forced task failure at one supernode must
// surface as that panel's error after the whole DAG drains (no early
// exit), identically at several GOMAXPROCS, for the real and the
// complex factorization.
func TestInjectedDAGTaskFailureDrainsDeterministically(t *testing.T) {
	a := meshSPD(24, 24)
	sym, ap := order.Analyze(a, order.MinimumDegree)
	ss, err := analyzeSuper(ap, sym, order.DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	target := ss.sn.NSuper() / 2
	val := func(p int) complex128 { return complex(ap.Val[p], 0.25*ap.Val[p]) }

	var msgs []string
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		s := inject.NewSchedule().Arm(inject.CholDAGTask, target)
		inject.Install(s)
		_, ferr := ss.factorize(ap, nil)
		if ferr == nil || !strings.Contains(ferr.Error(), "injected task failure") {
			t.Fatalf("procs=%d: err = %v, want injected task failure", procs, ferr)
		}
		if s.Fired(inject.CholDAGTask) != 1 {
			t.Fatalf("procs=%d: point fired %d times", procs, s.Fired(inject.CholDAGTask))
		}
		msgs = append(msgs, ferr.Error())

		s = inject.NewSchedule().Arm(inject.CholDAGTask, target)
		inject.Install(s)
		_, cerr := ss.factorizeComplex(ap, val, nil)
		if cerr == nil || !strings.Contains(cerr.Error(), "injected task failure") {
			t.Fatalf("procs=%d: complex err = %v", procs, cerr)
		}
		msgs = append(msgs, cerr.Error())
		inject.Reset()
		runtime.GOMAXPROCS(old)
	}
	for _, m := range msgs[1:] {
		if m != msgs[0] {
			t.Fatalf("injected failure drifted across procs: %q vs %q", msgs[0], m)
		}
	}

	// Disarmed, the same structure factors cleanly — the injection left
	// no state behind.
	if _, err := ss.factorize(ap, nil); err != nil {
		t.Fatalf("clean refactorize after injection: %v", err)
	}
}
