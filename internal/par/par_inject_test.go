//go:build pactcheck

package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/resilience/inject"
)

// TestInjectedCancelAtParItem drives the par.item injection point: a func
// rule armed at item k cancels the context at that exact checkpoint, and
// ForWorkersCtx must stop without running item k's body and without leaking the
// watcher goroutine.
func TestInjectedCancelAtParItem(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := inject.NewSchedule().ArmFunc(inject.ParItem, 25, cancel)
	inject.Install(s)
	defer inject.Reset()
	var ran atomic.Int64
	err := ForWorkersCtx(ctx, 100, func(_, i int) {
		if i == 25 {
			t.Error("item 25 ran despite cancellation at its checkpoint")
		}
		ran.Add(1)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 25 {
		t.Fatalf("ran %d items before the injected cancel, want 25 (serial)", got)
	}
	if s.Fired(inject.ParItem) != 1 {
		t.Fatal("injection point did not fire")
	}
	waitGoroutines(t, base)
}
