package par

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines polls until the live goroutine count returns to at most
// base (background scavengers may retire at any time), failing the test
// if the pool leaked workers. This is the no-dependency stand-in for a
// leak detector: every cancellable-pool test brackets itself with it.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d live, want <= %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		hits := make([]int32, n)
		ForWorkers(n, func(_, i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, h)
			}
		}
	}
}

func TestForWorkersIDsAreDense(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	pool := Workers(64)
	var bad atomic.Int64
	ForWorkers(64, func(w, i int) {
		if w < 0 || w >= pool {
			bad.Store(int64(w) + 1)
		}
	})
	if b := bad.Load(); b != 0 {
		t.Fatalf("worker id %d outside pool of %d", b-1, pool)
	}
}

func TestDoSerialWhenOneWorker(t *testing.T) {
	// With one worker the body must run inline, in order, on the calling
	// goroutine (observable via strictly increasing indices without
	// synchronization).
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	last := -1
	ForWorkers(50, func(w, i int) {
		if w != 0 {
			t.Fatalf("serial path used worker %d", w)
		}
		if i != last+1 {
			t.Fatalf("serial path out of order: %d after %d", i, last)
		}
		last = i
	})
	if last != 49 {
		t.Fatalf("serial path stopped at %d", last)
	}
}

func TestMapDeterministicOrdering(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	out, err := Map(200, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	errAt := func(i int) error { return fmt.Errorf("fail@%d", i) }
	out, err := Map(100, func(i int) (int, error) {
		if i == 17 || i == 63 {
			return 0, errAt(i)
		}
		return i, nil
	})
	if out != nil {
		t.Fatalf("Map returned results alongside error")
	}
	if err == nil || err.Error() != "fail@17" {
		t.Fatalf("Map error = %v, want fail@17 (lowest failing index)", err)
	}
}

func TestWorkerPanicIsCapturedAndRethrown(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic was swallowed")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "par: worker panic") || !strings.Contains(msg, "boom") {
			t.Fatalf("unexpected re-panic payload: %v", r)
		}
	}()
	ForWorkers(32, func(_, i int) {
		if i == 5 {
			panic(errors.New("boom"))
		}
	})
}

func TestWorkersBounds(t *testing.T) {
	if w := Workers(0); w != 1 {
		t.Fatalf("Workers(0) = %d, want 1", w)
	}
	if w := Workers(1); w != 1 {
		t.Fatalf("Workers(1) = %d, want 1", w)
	}
	if w := Workers(1 << 20); w > runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers exceeds GOMAXPROCS: %d", w)
	}
}

// TestDeterministicSumAcrossGOMAXPROCS drives the determinism contract:
// per-index arithmetic with a fixed merge order must be bit-identical at
// every worker count.
func TestDeterministicSumAcrossGOMAXPROCS(t *testing.T) {
	n := 1000
	run := func() []float64 {
		out := make([]float64, n)
		ForWorkers(n, func(_, i int) {
			v := 1.0
			for k := 1; k <= 40; k++ {
				v = v*1.0000001 + float64(i%7)*1e-9
			}
			out[i] = v
		})
		return out
	}
	old := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(4)
	parallel := run()
	runtime.GOMAXPROCS(old)
	for i := range serial {
		if math.Float64bits(serial[i]) != math.Float64bits(parallel[i]) {
			t.Fatalf("index %d differs across GOMAXPROCS: %g vs %g", i, serial[i], parallel[i])
		}
	}
}

func TestDoCtxCompletesWithoutCancel(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hits := make([]int32, 500)
	if err := ForWorkersCtx(ctx, 500, func(_, i int) { atomic.AddInt32(&hits[i], 1) }); err != nil {
		t.Fatalf("ForWorkersCtx with live context: %v", err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
	waitGoroutines(t, base)
}

func TestDoCtxBackgroundTakesPlainPath(t *testing.T) {
	// context.Background can never be canceled, so the pool must not
	// spawn a watcher goroutine — same goroutine count before and after,
	// serially.
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	base := runtime.NumGoroutine()
	if err := ForWorkersCtx(context.Background(), 100, func(_, i int) {}); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

func TestDoCtxAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Int64{}
	err := ForWorkersCtx(ctx, 1000, func(_, i int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("pre-canceled context still ran %d items", ran.Load())
	}
}

func TestDoCtxCancelMidRunStopsAndCleansUp(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	err := ForWorkersCtx(ctx, 100000, func(_, i int) {
		if ran.Add(1) == 50 {
			cancel()
		}
		time.Sleep(10 * time.Microsecond)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 100000 {
		t.Fatalf("cancellation did not stop the pool (ran all %d items)", n)
	}
	waitGoroutines(t, base)
}

func TestDoCtxDeadline(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := ForWorkersCtx(ctx, 1<<30, func(_, i int) { time.Sleep(50 * time.Microsecond) })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	waitGoroutines(t, base)
}

func TestDoCtxSerialCancel(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	err := ForWorkersCtx(ctx, 1000, func(_, i int) {
		ran++
		if i == 10 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran >= 1000 {
		t.Fatal("serial path ignored cancellation")
	}
}

func BenchmarkForOverheadSmall(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ForWorkers(1, func(int, int) {})
	}
}

func TestDoChunksCoversEveryIndexOnce(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	for _, tc := range []struct{ n, chunk int }{
		{0, 4}, {1, 4}, {7, 3}, {100, 7}, {64, 64}, {64, 1}, {10, 100},
	} {
		var mu sync.Mutex
		seen := make([]int, tc.n)
		ForChunks(tc.n, tc.chunk, func(_, lo, hi int) {
			if lo < 0 || hi > tc.n || lo >= hi {
				t.Errorf("n=%d chunk=%d: bad range [%d,%d)", tc.n, tc.chunk, lo, hi)
			}
			if lo%tc.chunk != 0 {
				t.Errorf("n=%d chunk=%d: range start %d not on a chunk boundary", tc.n, tc.chunk, lo)
			}
			mu.Lock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			mu.Unlock()
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d chunk=%d: index %d ran %d times", tc.n, tc.chunk, i, c)
			}
		}
	}
}

func TestDoChunksBoundariesIndependentOfWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	collect := func(procs int) map[int]int {
		runtime.GOMAXPROCS(procs)
		var mu sync.Mutex
		ranges := make(map[int]int)
		ForChunks(103, 8, func(_, lo, hi int) {
			mu.Lock()
			ranges[lo] = hi
			mu.Unlock()
		})
		return ranges
	}
	one := collect(1)
	for _, w := range []int{2, 4, 16} {
		got := collect(w)
		if len(got) != len(one) {
			t.Fatalf("GOMAXPROCS=%d: %d chunks, want %d", w, len(got), len(one))
		}
		for lo, hi := range one {
			if got[lo] != hi {
				t.Fatalf("GOMAXPROCS=%d: chunk [%d,%d), want [%d,%d)", w, lo, got[lo], lo, hi)
			}
		}
	}
}

func TestChunksCount(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ n, chunk, want int }{
		{0, 4, 0}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {8, 0, 8}, {8, -1, 8},
	} {
		if got := Chunks(tc.n, tc.chunk); got != tc.want {
			t.Errorf("Chunks(%d, %d) = %d, want %d", tc.n, tc.chunk, got, tc.want)
		}
	}
}
