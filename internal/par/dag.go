// Task-DAG scheduling: the dependency-counting generalization of the
// pool in par.go. ForWorkers hands out the iterations of one flat loop; RunDAG
// hands out the tasks of a precedence DAG, firing each task the moment
// its last dependency completes instead of barriering on level
// boundaries. The supernodal Cholesky is the motivating caller: an
// elimination-tree level schedule leaves workers idle whenever one slow
// panel tail-gates a level, while the DAG schedule keeps every worker
// busy as long as any panel is ready.
//
// Determinism contract: RunDAG guarantees only *which* tasks run (all of
// them, each exactly once) and that a task starts strictly after all of
// its dependencies returned. Execution order beyond that is
// timing-dependent, so — exactly as with ForWorkers — a body that keeps
// per-task arithmetic independent (worker-owned scratch indexed by the
// worker id, writes only to task-owned slots, fixed reduction order
// inside a task) produces bit-identical results at every GOMAXPROCS and
// under every interleaving. The five pactlint determinism rules check
// RunDAG callback bodies like every other par callback.
//
// Panics inside a task are captured per worker; the pool keeps draining
// (a panicked task still releases its dependents, so the run cannot
// deadlock) and the first captured panic by worker id is re-raised on
// the calling goroutine after the DAG completes, mirroring ForWorkers.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// DAG is an immutable task-precedence graph prepared once by NewDAG and
// shared by every subsequent run — including concurrent runs, each with
// its own DAGScratch. It stores the dependency counts and the successor
// adjacency in CSR form (int32 indices: DAGs here index supernodes, not
// matrix entries, so 2^31 tasks is not a practical bound).
type DAG struct {
	n       int
	indeg   []int32 // baseline dependency count per task
	succPtr []int32 // CSR offsets into succ, length n+1
	succ    []int32 // successor task ids (tasks that depend on i)
	roots   []int32 // tasks with no dependencies, ascending
}

// NewDAG builds the run-ready form of a dependency graph: deps[t] lists
// the tasks that must complete before task t may start (duplicates are
// tolerated and counted once). NewDAG validates acyclicity with one
// Kahn sweep and panics on a cycle — an impossible input from a correct
// symbolic analysis, so it is a programmer error, not a runtime
// condition.
func NewDAG(deps [][]int32) *DAG {
	n := len(deps)
	d := &DAG{
		n:       n,
		indeg:   make([]int32, n),
		succPtr: make([]int32, n+1),
	}
	// Dedup each task's dependency list via a seen-stamp so a repeated
	// edge releases its dependent exactly once.
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	nedges := 0
	for t, dl := range deps {
		for _, p := range dl {
			if p < 0 || int(p) >= n {
				panic(fmt.Sprintf("par: DAG dependency %d of task %d out of range [0,%d)", p, t, n))
			}
			if seen[p] == int32(t) {
				continue
			}
			seen[p] = int32(t)
			d.indeg[t]++
			d.succPtr[p+1]++
			nedges++
		}
	}
	for i := 0; i < n; i++ {
		d.succPtr[i+1] += d.succPtr[i]
	}
	d.succ = make([]int32, nedges)
	next := make([]int32, n)
	copy(next, d.succPtr[:n])
	for i := range seen {
		seen[i] = -1
	}
	for t, dl := range deps {
		for _, p := range dl {
			if seen[p] == int32(t) {
				continue
			}
			seen[p] = int32(t)
			d.succ[next[p]] = int32(t)
			next[p]++
		}
	}
	for t := 0; t < n; t++ {
		if d.indeg[t] == 0 {
			d.roots = append(d.roots, int32(t))
		}
	}
	// Kahn acyclicity sweep over scratch counts: every task must become
	// ready exactly once.
	sc := d.NewScratch()
	counts, queue := sc.counts, sc.queue
	copy(counts, d.indeg)
	queue = append(queue[:0], d.roots...)
	processed := 0
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		processed++
		for p := d.succPtr[t]; p < d.succPtr[t+1]; p++ {
			s := d.succ[p]
			if counts[s]--; counts[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if processed != n {
		panic(fmt.Sprintf("par: DAG has a dependency cycle (%d of %d tasks reachable)", processed, n))
	}
	return d
}

// Len returns the number of tasks.
func (d *DAG) Len() int { return d.n }

// Edges returns the number of (deduplicated) dependency edges.
func (d *DAG) Edges() int { return len(d.succ) }

// DAGScratch is the per-run mutable state of a DAG execution: the live
// dependency counts and the ready queue. One scratch serves one run at
// a time; reusing it across runs makes repeated executions of the same
// DAG allocation-free, and concurrent runs of one shared DAG each bring
// their own scratch.
type DAGScratch struct {
	counts []int32
	queue  []int32
}

// NewScratch allocates run state sized for this DAG.
func (d *DAG) NewScratch() *DAGScratch {
	return &DAGScratch{
		counts: make([]int32, d.n),
		queue:  make([]int32, 0, d.n),
	}
}

// RunDAG executes every task of d exactly once on at most the given
// number of workers, starting each task only after all of its
// dependencies returned. Allocates fresh run state; use RunDAGScratch
// with a reused DAGScratch for allocation-free repeated runs.
func RunDAG(workers int, d *DAG, body func(worker, task int)) {
	RunDAGScratch(workers, d, d.NewScratch(), body)
}

// RunDAGScratch is RunDAG against caller-owned run state (see
// DAGScratch). The scratch must have been created by d.NewScratch (or
// one of a DAG with at least as many tasks) and must not be shared by
// concurrent runs.
//
// Scheduling: ready tasks are held in a LIFO queue under one mutex —
// finishing a panel tends to ready its parent, so depth-first hand-out
// keeps a worker walking up a subtree it just touched. Workers take one
// task at a time; with one worker (or one task) the whole DAG runs
// inline on the calling goroutine with no synchronization. The
// completion order is timing-dependent; see the package comment for
// what that does and does not mean for determinism.
//
// Every task runs even if another task panicked or recorded an error in
// a caller-owned slot: there is no early exit, which keeps the set of
// executed tasks — and therefore every caller-visible side effect — the
// same on every run. Panics are captured per worker and the first by
// worker id is re-raised after the run, as in ForWorkers.
func RunDAGScratch(workers int, d *DAG, sc *DAGScratch, body func(worker, task int)) {
	n := d.n
	if n == 0 {
		return
	}
	if max := Workers(n); workers > max {
		workers = max
	}
	counts := sc.counts[:n]
	copy(counts, d.indeg)
	// queue never outgrows its capacity (each task is pushed exactly
	// once and the scratch was sized for the DAG), so the append below
	// always reuses the scratch array — no write-back needed.
	queue := append(sc.queue[:0], d.roots...)

	if workers <= 1 {
		// Inline serial path: no goroutines, no synchronization, no
		// allocations (the parallel machinery lives in its own function so
		// its escaping captures cost nothing here). A body panic
		// propagates immediately, as in the flat pool's serial path.
		for len(queue) > 0 {
			t := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			body(0, int(t))
			for p := d.succPtr[t]; p < d.succPtr[t+1]; p++ {
				s := d.succ[p]
				if counts[s]--; counts[s] == 0 {
					queue = append(queue, s)
				}
			}
		}
		return
	}
	runDAGParallel(workers, d, counts, queue, body)
}

func runDAGParallel(workers int, d *DAG, counts []int32, queue []int32, body func(worker, task int)) {
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	remaining := d.n
	panics := make([]*capturedPanic, workers)
	runTask := func(w int, t int32) {
		defer func() {
			if r := recover(); r != nil && panics[w] == nil {
				panics[w] = &capturedPanic{value: r, stack: debug.Stack()}
			}
		}()
		body(w, int(t))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				for len(queue) == 0 && remaining > 0 {
					cond.Wait()
				}
				if remaining == 0 {
					mu.Unlock()
					return
				}
				t := queue[len(queue)-1]
				queue = queue[:len(queue)-1]
				mu.Unlock()

				runTask(w, t)

				mu.Lock()
				for p := d.succPtr[t]; p < d.succPtr[t+1]; p++ {
					s := d.succ[p]
					if counts[s]--; counts[s] == 0 {
						queue = append(queue, s)
					}
				}
				remaining--
				wake := remaining == 0 || len(queue) > 0
				mu.Unlock()
				if wake {
					cond.Broadcast()
				}
			}
		}(w)
	}
	wg.Wait()
	rethrow(panics)
}
