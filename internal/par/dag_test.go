package par

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// withProcs raises GOMAXPROCS so the workers>1 scheduling path actually
// runs on single-CPU test machines (Workers clamps to GOMAXPROCS).
func withProcs(t *testing.T, p int) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// chainDeps builds a DAG of nchains independent chains of the given
// length: task c*length+i depends on c*length+i-1.
func chainDeps(nchains, length int) [][]int32 {
	deps := make([][]int32, nchains*length)
	for c := 0; c < nchains; c++ {
		for i := 1; i < length; i++ {
			t := c*length + i
			deps[t] = []int32{int32(t - 1)}
		}
	}
	return deps
}

// treeDeps builds the reverse of a complete binary tree over n tasks:
// task t depends on its children 2t+1 and 2t+2 (heap order), so the
// root (task 0) runs last — the shape of a supernodal elimination tree.
func treeDeps(n int) [][]int32 {
	deps := make([][]int32, n)
	for t := 0; t < n; t++ {
		if c := 2*t + 1; c < n {
			deps[t] = append(deps[t], int32(c))
		}
		if c := 2*t + 2; c < n {
			deps[t] = append(deps[t], int32(c))
		}
	}
	return deps
}

func TestRunDAGRespectsDependencies(t *testing.T) {
	withProcs(t, 8)
	cases := []struct {
		name string
		deps [][]int32
	}{
		{"chains", chainDeps(7, 13)},
		{"tree", treeDeps(127)},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, tc := range cases {
			name, deps := tc.name, tc.deps
			d := NewDAG(deps)
			n := d.Len()
			done := make([]atomic.Bool, n)
			var ran atomic.Int64
			RunDAG(workers, d, func(_, task int) {
				for _, p := range deps[task] {
					if !done[p].Load() {
						t.Errorf("%s/w%d: task %d started before dependency %d finished", name, workers, task, p)
					}
				}
				ran.Add(1)
				done[task].Store(true)
			})
			if got := ran.Load(); got != int64(n) {
				t.Fatalf("%s/w%d: ran %d of %d tasks", name, workers, got, n)
			}
		}
	}
}

func TestRunDAGTaskOwnedSlotsMatchSerial(t *testing.T) {
	withProcs(t, 8)
	deps := treeDeps(255)
	d := NewDAG(deps)
	n := d.Len()
	want := make([]float64, n)
	RunDAG(1, d, func(_, task int) {
		v := float64(task) * 1.5
		for _, p := range deps[task] {
			v += want[p] // reading dependency slots is safe: they are final
		}
		want[task] = v
	})
	for _, workers := range []int{2, 4, 8} {
		got := make([]float64, n)
		RunDAG(workers, d, func(_, task int) {
			v := float64(task) * 1.5
			for _, p := range deps[task] {
				v += got[p]
			}
			got[task] = v
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestRunDAGPanicPropagatesAfterDrain(t *testing.T) {
	withProcs(t, 4)
	deps := chainDeps(4, 8)
	d := NewDAG(deps)
	var ran atomic.Int64
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected re-raised panic")
			}
			if !strings.Contains(r.(string), "boom") {
				t.Fatalf("panic %q does not carry the task panic", r)
			}
		}()
		RunDAG(4, d, func(_, task int) {
			ran.Add(1)
			if task == 3 {
				panic("boom")
			}
		})
	}()
	// No early exit: a panicked task still releases its dependents, so
	// the whole DAG drains before the panic is re-raised.
	if got := ran.Load(); got != int64(d.Len()) {
		t.Fatalf("ran %d of %d tasks after panic", got, d.Len())
	}
}

func TestRunDAGScratchReuseIsAllocationFree(t *testing.T) {
	d := NewDAG(treeDeps(63))
	sc := d.NewScratch()
	sink := make([]int, d.Len())
	// Warm once, then the steady state must not allocate (single worker:
	// the parallel path spawns goroutines, which allocate by design).
	body := func(_, task int) { sink[task]++ }
	RunDAGScratch(1, d, sc, body)
	allocs := testing.AllocsPerRun(10, func() {
		RunDAGScratch(1, d, sc, body)
	})
	if allocs != 0 {
		t.Fatalf("steady-state RunDAGScratch allocates %v objects/run", allocs)
	}
	for i, c := range sink {
		if c != 12 { // 1 warm + 10 measured + 1 AllocsPerRun warm-up
			t.Fatalf("task %d ran %d times, want 12", i, c)
		}
	}
}

func TestRunDAGSharedDAGConcurrentRuns(t *testing.T) {
	withProcs(t, 8)
	d := NewDAG(treeDeps(127))
	// One immutable DAG, many concurrent runs each with its own scratch —
	// the YSweep shape (per-frequency refactorizations share the symbolic
	// DAG).
	ForWorkers(8, func(_, i int) {
		sc := d.NewScratch()
		var ran atomic.Int64
		RunDAGScratch(2, d, sc, func(_, task int) { ran.Add(1) })
		if ran.Load() != int64(d.Len()) {
			t.Errorf("run %d: ran %d of %d", i, ran.Load(), d.Len())
		}
	})
}

func TestNewDAGDetectsCycle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cyclic dependency graph")
		}
	}()
	NewDAG([][]int32{1: {2}, 2: {1}})
}

func TestNewDAGDedupsEdges(t *testing.T) {
	d := NewDAG([][]int32{0: nil, 1: {0, 0, 0}})
	if d.Edges() != 1 {
		t.Fatalf("duplicate dependencies kept: %d edges, want 1", d.Edges())
	}
	var ran atomic.Int64
	RunDAG(2, d, func(_, task int) { ran.Add(1) })
	if ran.Load() != 2 {
		t.Fatalf("ran %d of 2 tasks", ran.Load())
	}
}

func TestRunDAGWorkerIndexDense(t *testing.T) {
	withProcs(t, 4)
	d := NewDAG(chainDeps(16, 4))
	workers := 4
	seen := make([]atomic.Int64, workers)
	RunDAG(workers, d, func(w, _ int) { seen[w].Add(1) })
	total := int64(0)
	for w := range seen {
		total += seen[w].Load()
	}
	if total != int64(d.Len()) {
		t.Fatalf("worker ids outside [0,%d): %d of %d tasks accounted", workers, total, d.Len())
	}
}
