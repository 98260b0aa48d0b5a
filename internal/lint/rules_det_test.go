package lint

import (
	"strings"
	"testing"
)

// parStub is a minimal fixturemod/internal/par with the entry-point
// signatures the callback analysis keys on. The rules classify by
// package-path suffix, so this stands in for the real pool.
const parStub = `package par

func Workers(n int) int { return 1 }

func ForWorkers(n int, body func(worker, i int)) {
	for i := 0; i < n; i++ {
		body(0, i)
	}
}

func ForChunks(n, chunk int, body func(worker, lo, hi int)) { body(0, 0, n) }

func Map[T any](n int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	for i := range out {
		v, err := f(i)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
`

// TestSharedwrite: unindexed captured writes inside parallel callbacks
// are flagged; item-indexed, derived-index, worker-slot and
// callback-local writes are not.
func TestSharedwrite(t *testing.T) {
	t.Parallel()
	l := fixtureLoader(t, map[string]string{
		"internal/par/par.go": parStub,
		"internal/core/core.go": `package core

import "fixturemod/internal/par"

func Bad(xs []float64, k int) float64 {
	var last float64
	count := 0
	out := make([]float64, len(xs))
	par.ForWorkers(len(xs), func(w, i int) {
		last = xs[i]
		count++
		out[k] = xs[i]
	})
	return last + float64(count) + out[0]
}

func OkSlots(out, xs []float64, lvl []int) {
	par.ForWorkers(len(xs), func(w, i int) {
		out[i] = 2 * xs[i]
		s := lvl[i]
		out[s] = float64(s)
	})
}

func OkScratch(n int) [][]float64 {
	scratch := make([][]float64, par.Workers(n))
	par.ForWorkers(n, func(w, i int) {
		if scratch[w] == nil {
			scratch[w] = make([]float64, 4)
		}
		buf := scratch[w]
		buf[0] = float64(i)
	})
	return scratch
}

func OkChunks(out, xs []float64) {
	par.ForChunks(len(xs), 8, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = xs[i]
		}
	})
}
`,
	})
	ds := runRule(t, l, "internal/core", "sharedwrite")
	// last (10), count++ (11), out[k] (12): k is captured, not a
	// callback argument, so the write is not iteration-owned.
	wantLines(t, ds, 10, 11, 12)
	if !strings.Contains(ds[0].Hint, "item argument") {
		t.Fatalf("hint should name the slot-indexed idiom: %v", ds[0])
	}
}

// TestFpreduce: floating-point accumulation into captured state —
// scalar, self-assign form, and worker-indexed partial sums — is
// flagged; the per-item slot accumulation with a fixed-order post-merge
// (the sanctioned idiom) is not.
func TestFpreduce(t *testing.T) {
	t.Parallel()
	l := fixtureLoader(t, map[string]string{
		"internal/par/par.go": parStub,
		"internal/core/core.go": `package core

import "fixturemod/internal/par"

func BadSum(xs []float64) float64 {
	sum := 0.0
	par.ForWorkers(len(xs), func(_, i int) {
		sum += xs[i]
	})
	return sum
}

func BadSelfAssign(xs []float64) float64 {
	sum := 0.0
	par.Map(len(xs), func(i int) (int, error) {
		sum = sum + xs[i]
		return i, nil
	})
	return sum
}

func BadWorkerSlots(xs []float64) float64 {
	partial := make([]float64, par.Workers(len(xs)))
	par.ForWorkers(len(xs), func(w, i int) {
		partial[w] += xs[i]
	})
	sum := 0.0
	for _, v := range partial {
		sum += v
	}
	return sum
}

func OkSlotMerge(xs []float64) float64 {
	slots := make([]float64, len(xs))
	par.ForWorkers(len(xs), func(w, i int) {
		slots[i] += 2 * xs[i]
	})
	sum := 0.0
	for _, v := range slots {
		sum += v
	}
	return sum
}
`,
	})
	ds := runRule(t, l, "internal/core", "fpreduce")
	wantLines(t, ds, 8, 16, 25)
	if !strings.Contains(ds[2].Msg, "worker-indexed") {
		t.Fatalf("worker-slot accumulation should explain the scheduling-order trap: %v", ds[2])
	}
	// The same fixture must be clean under sharedwrite: every finding
	// here is a reduction, not a race, and each belongs to one rule.
	wantLines(t, runRule(t, l, "internal/core", "sharedwrite"))
}

// TestSharedwriteChunkBucketIdiom: the chunk-indexed bucket pattern of
// the parallel stamping/assembly front end — a ForChunks callback that
// writes only the bucket selected by lo/chunk, or only the rows of its
// own [lo,hi) range — is clean, while the same shape with a captured
// (non-derived) bucket cursor or a captured first-error variable is a
// scheduling-order race and is flagged.
func TestSharedwriteChunkBucketIdiom(t *testing.T) {
	t.Parallel()
	l := fixtureLoader(t, map[string]string{
		"internal/par/par.go": parStub,
		"internal/stamp/stamp.go": `package stamp

import "fixturemod/internal/par"

type bucket struct {
	rows []int
	vals []float64
	err  error
}

func OkBuckets(n int, xs []float64) []bucket {
	buckets := make([]bucket, (n+7)/8)
	par.ForChunks(n, 8, func(w, lo, hi int) {
		bk := &buckets[lo/8]
		for i := lo; i < hi; i++ {
			bk.rows = append(bk.rows, i)
			bk.vals = append(bk.vals, xs[i])
		}
	})
	return buckets
}

func OkRowSegments(rowLen []int, n int) {
	par.ForChunks(n, 8, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			rowLen[i] = i - lo
		}
	})
}

func BadCapturedCursor(n int) []bucket {
	buckets := make([]bucket, (n+7)/8)
	next := 0
	par.ForChunks(n, 8, func(w, lo, hi int) {
		buckets[next].rows = append(buckets[next].rows, lo)
		next++
	})
	return buckets
}

func BadFirstError(n int) error {
	var firstErr error
	par.ForChunks(n, 8, func(w, lo, hi int) {
		firstErr = nil
	})
	return firstErr
}
`,
	})
	ds := runRule(t, l, "internal/stamp", "sharedwrite")
	// buckets[next] (35) and next++ (36): the cursor is captured, not
	// derived from lo/hi, so whichever worker draws the chunk writes it.
	// firstErr (44): the sanctioned idiom stores the error in the chunk's
	// own bucket and picks the lowest failing chunk after the pool
	// returns, never a captured scalar.
	wantLines(t, ds, 35, 36, 44)
	// The clean idioms must also be clean under fpreduce: every write is
	// an owned slot, not a reduction.
	wantLines(t, runRule(t, l, "internal/stamp", "fpreduce"))
}

// TestMaporder: float accumulation, unsorted appends and fmt output in
// map iteration order are flagged; the collect-sort-iterate idiom (both
// stdlib sort and a local sort helper), integer counting and map-to-map
// transforms are not.
func TestMaporder(t *testing.T) {
	t.Parallel()
	l := fixtureLoader(t, map[string]string{
		"internal/rep/rep.go": `package rep

import (
	"fmt"
	"sort"
)

func BadSum(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v
	}
	return total
}

func BadCollect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func BadReport(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

func OkSortedStdlib(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0.0
	for _, k := range keys {
		total += m[k]
	}
	return total
}

func OkSortedLocal(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys
}

func sortKeys(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func OkCount(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

func OkTransform(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v + 1
	}
	return out
}
`,
	})
	ds := runRule(t, l, "internal/rep", "maporder")
	wantLines(t, ds, 11, 19, 26)
}

// TestNondet: wall-clock and global-rand sources are flagged when
// reachable from a numeric package — directly, and through a helper
// package with the finding anchored at the source in the helper's file.
// Seeded generators are not sources, and non-numeric packages are not
// roots.
func TestNondet(t *testing.T) {
	t.Parallel()
	files := map[string]string{
		"internal/clock/clock.go": `package clock

import "time"

func Stamp() time.Time {
	return time.Now()
}
`,
		"internal/core/core.go": `package core

import (
	"math/rand"
	"time"

	"fixturemod/internal/clock"
)

func BadDirect() int64 { return time.Now().UnixNano() }

func BadViaHelper() int64 { return clock.Stamp().UnixNano() }

func BadRand() float64 { return rand.Float64() }

func BadSelect(a, b chan int) int {
	select {
	case x := <-a:
		return x
	case x := <-b:
		return x
	}
}

func OkSeeded(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}
`,
	}
	l := fixtureLoader(t, files)
	ds := runRule(t, l, "internal/core", "nondet")
	if len(ds) != 4 {
		t.Fatalf("got %d nondet findings, want 4:\n%v", len(ds), ds)
	}
	var sawHelper bool
	for _, d := range ds {
		if strings.HasSuffix(d.Pos.Filename, "clock.go") {
			sawHelper = true
			if !strings.Contains(d.Msg, "reachable from") {
				t.Fatalf("cross-package finding should name the numeric root: %v", d)
			}
		}
	}
	if !sawHelper {
		t.Fatalf("expected a finding anchored at the helper's time.Now:\n%v", ds)
	}
	// The helper package itself is not numeric, so it is not a root.
	wantLines(t, runRule(t, l, "internal/clock", "nondet"))
}

// TestNondetSuppressionAtSource: a //lint:ignore written next to the
// source in the helper package covers the analyzing numeric package too
// — module-wide suppression matching.
func TestNondetSuppressionAtSource(t *testing.T) {
	t.Parallel()
	l := fixtureLoader(t, map[string]string{
		"internal/clock/clock.go": `package clock

import "time"

func Stamp() time.Time {
	//lint:ignore nondet wall-clock stamp feeds logging only, never arithmetic
	return time.Now()
}
`,
		"internal/core/core.go": `package core

import "fixturemod/internal/clock"

func ViaHelper() int64 { return clock.Stamp().UnixNano() }
`,
	})
	wantLines(t, runRule(t, l, "internal/core", "nondet"))
}

// TestGlobalmut: package-level writes are flagged whether they happen
// in the callback itself, in a function the callback calls, or in a
// named function passed as the callback; slot writes to caller-owned
// state are not. sharedwrite leaves package-level targets to this rule.
func TestGlobalmut(t *testing.T) {
	t.Parallel()
	l := fixtureLoader(t, map[string]string{
		"internal/par/par.go": parStub,
		"internal/core/core.go": `package core

import "fixturemod/internal/par"

var hits int

var gauge float64

var named int

func bump() { hits++ }

func handler(w, i int) { named = i }

func Bad(xs []float64) {
	par.ForWorkers(len(xs), func(_, i int) {
		bump()
	})
	par.ForWorkers(len(xs), func(_, i int) {
		gauge = xs[i]
	})
	par.ForWorkers(len(xs), handler)
}

func Ok(out, xs []float64) {
	par.ForWorkers(len(xs), func(_, i int) {
		out[i] = xs[i]
	})
}
`,
	})
	ds := runRule(t, l, "internal/core", "globalmut")
	// hits++ inside bump (11), gauge in the callback (20), named in the
	// handler passed by name (13) — reported in source order.
	wantLines(t, ds, 11, 13, 20)
	for _, d := range ds {
		if !strings.Contains(d.Msg, "parallel callback") {
			t.Fatalf("finding should name the callback call site: %v", d)
		}
	}
	// The direct global write is globalmut's, not sharedwrite's.
	wantLines(t, runRule(t, l, "internal/core", "sharedwrite"))
}

// TestDedup: identical (position, rule) diagnostics collapse to one.
func TestDedup(t *testing.T) {
	t.Parallel()
	l := fixtureLoader(t, map[string]string{
		"internal/num/num.go": `package num

func Bad(a, b float64) bool { return a == b }
`,
	})
	ds := runRule(t, l, "internal/num", "floatcmp")
	wantLines(t, ds, 3)
	doubled := append(append([]Diagnostic(nil), ds...), ds...)
	if got := Dedup(doubled); len(got) != 1 {
		t.Fatalf("Dedup left %d of 2 identical diagnostics, want 1", len(got))
	}
}
