// Package par is the worker-pool layer of the numerical core: bounded
// fan-out over independent loop iterations with deterministic result
// placement. The hot loops of the PACT flow — the per-port triangular
// solves of Transform 1, row panels of dense matrix products, and the
// independent frequency points of the AC verification sweeps — are all
// embarrassingly parallel, and this package gives them one shared,
// allocation-disciplined scheduling primitive instead of ad-hoc
// goroutine spawns.
//
// Determinism contract: every parallel entry point assigns iteration i
// the same work regardless of worker count, and results land in
// caller-owned slots indexed by i. Callers that keep per-iteration
// arithmetic independent (no shared accumulators, fixed reduction order)
// therefore get bit-identical output at every GOMAXPROCS, which is what
// lets the golden experiment outputs stay exact while the wall-clock
// drops. Worker-owned scratch is supported by the worker index passed to
// ForWorkers: allocate one scratch slot per worker up front and index
// it with that id; no two iterations on the same worker overlap.
//
// Panics inside a worker are captured and re-raised on the calling
// goroutine (first worker id wins, deterministically ordered), so a
// library invariant violation inside a pool behaves like one in a serial
// loop instead of crashing the process from an anonymous goroutine.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/resilience/inject"
)

// Workers returns the bounded fan-out for n independent iterations:
// min(GOMAXPROCS, n), at least 1. This is the pool size ForWorkers uses.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// capturedPanic holds a worker panic until the caller re-raises it.
type capturedPanic struct {
	value any
	stack []byte
}

// run is the pool loop behind every flat entry point: body(worker, i)
// for every i in [0, n) on Workers(n) workers. Iterations are handed out
// dynamically, so uneven per-iteration cost load-balances; the worker
// argument identifies which pool member is running (dense in
// [0, workers)), letting callers own one scratch buffer per worker. With
// one worker the body runs inline on the calling goroutine — no
// goroutines, no synchronization — so small problems pay nothing.
//
// A context that can be canceled is checked between work items (never
// mid-item): a canceled context stops the pool at the next item boundary
// and run returns ctx.Err(). Items that already ran wrote their results
// to their caller-owned slots as usual; cancellation only changes
// *whether* iterations run, never what work iteration i performs, so
// every completed (nil-return) run keeps the determinism contract. A
// context that can never be canceled (ctx.Done() == nil, e.g.
// context.Background()) pays no watcher and no per-item check.
//
// If any body call panics, run waits for the remaining workers, then
// re-panics on the calling goroutine with the first captured panic (by
// worker id) and its stack.
func run(ctx context.Context, n int, body func(worker, i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	cancelable := ctx.Done() != nil
	if cancelable {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	workers := Workers(n)
	if workers == 1 {
		// Serial path: no watcher, the loop asks the context directly (one
		// uncontended check per item).
		for i := 0; i < n; i++ {
			if cancelable {
				if inject.Enabled {
					inject.Visit(inject.ParItem, i)
				}
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			body(0, i)
		}
		return nil
	}
	// One watcher goroutine turns the channel close into an atomic flag
	// the workers can poll for free; it exits as soon as the pool drains.
	var stop, bailed atomic.Bool
	if cancelable {
		poolDone := make(chan struct{})
		defer close(poolDone)
		go func() {
			// The watcher's select races cancellation against pool drain,
			// but it only decides *whether* remaining items run, never what
			// work an item performs — completed (nil-return) pools are
			// bit-identical at every GOMAXPROCS.
			//lint:ignore nondet cancellation watcher: the race picks whether items run, not what they compute; completed runs stay bit-identical
			select {
			case <-ctx.Done():
				stop.Store(true)
			case <-poolDone:
			}
		}()
	}
	// proceed reports whether item i may run on a cancelable pool.
	proceed := func(i int) bool {
		if stop.Load() {
			return false
		}
		if inject.Enabled {
			// Per-item checkpoint: a func rule armed at par.item models an
			// external event (canonically ctx cancellation) arriving between
			// items; re-checking the context right after makes the effect
			// land on this very item instead of racing the watcher.
			inject.Visit(inject.ParItem, i)
			return ctx.Err() == nil
		}
		return true
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	panics := make([]*capturedPanic, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[w] = &capturedPanic{value: r, stack: debug.Stack()}
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if cancelable && !proceed(i) {
					bailed.Store(true)
					return
				}
				body(w, i)
			}
		}(w)
	}
	wg.Wait()
	rethrow(panics)
	if bailed.Load() {
		return ctx.Err()
	}
	return nil
}

// rethrow re-panics on the calling goroutine with the first captured
// panic by worker id, if any.
func rethrow(panics []*capturedPanic) {
	for _, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("par: worker panic: %v\n%s", p.value, p.stack))
		}
	}
}

// Chunks returns the number of contiguous chunks of the given size
// needed to cover n items (the hand-out granularity of ForChunks).
func Chunks(n, chunk int) int {
	if chunk < 1 {
		chunk = 1
	}
	return (n + chunk - 1) / chunk
}

// ForChunks runs body(worker, lo, hi) over the half-open ranges
// [0,chunk), [chunk,2·chunk), … covering [0, n) on Workers(nchunks)
// workers. The hand-out advances one *chunk* at a time instead of one
// item, so loops whose per-item cost is small (multi-RHS solve columns,
// stamping chunks) pay the scheduling overhead once per batch rather
// than once per iteration, while uneven chunk cost still load-balances.
//
// The chunk boundaries depend only on n and chunk — never on the worker
// count — so a body that keeps per-range arithmetic independent inherits
// the pool's determinism contract unchanged. With one worker (or a
// single chunk) the ranges run inline on the calling goroutine in
// ascending order.
func ForChunks(n, chunk int, body func(worker, lo, hi int)) {
	if chunk < 1 {
		chunk = 1
	}
	ForWorkers(Chunks(n, chunk), func(w, c int) {
		lo := c * chunk
		body(w, lo, min(lo+chunk, n))
	})
}

// ForWorkers runs body(worker, i) for every i in [0, n) on Workers(n)
// workers. Use the worker index to address pre-allocated per-worker
// scratch.
func ForWorkers(n int, body func(worker, i int)) {
	_ = run(context.Background(), n, body) // a Background context never ends, so run returns nil
}

// ForWorkersCtx is ForWorkers with cooperative cancellation between work
// items: it returns ctx.Err() if the context ended before every item
// ran.
func ForWorkersCtx(ctx context.Context, n int, body func(worker, i int)) error {
	return run(ctx, n, body)
}

// Map evaluates f(i) for every i in [0, n) in parallel and returns the
// results in index order. If any call errors, Map returns the error of
// the lowest failing index (deterministic regardless of completion
// order) and a nil slice.
func Map[T any](n int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForWorkers(n, func(_, i int) { out[i], errs[i] = f(i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
