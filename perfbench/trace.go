package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Attached spans carry a duration the program reported itself
// (core.Stats stage times, Extraction stamp/assemble times, a service
// Result's reduction time); they are laid end to end from their parent's
// start, because only their length is known.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Op       string `json:"op"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Attached bool   `json:"attached,omitempty"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer records spans in memory; they are written out once the run
// ends. A nil *tracer records nothing, so untraced code paths pass nil.
// Service clients record from several goroutines, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// nextAttach is the end of the last attached child per parent.
	nextAttach map[int]int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), nextAttach: map[int]int64{}} }

// begin opens a span and returns its id (ids start at 1; 0 is "no
// parent").
func (t *tracer) begin(name string, parent int, op string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, StartNs: now})
	return len(t.spans)
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs = now
}

// attach records a child of parent whose duration the program measured.
func (t *tracer) attach(name string, parent int, ns int64) {
	if t == nil || parent == 0 || ns <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	start, ok := t.nextAttach[parent]
	if !ok {
		start = p.StartNs
	}
	t.nextAttach[parent] = start + ns
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: p.Op,
		StartNs: start, EndNs: start + ns, Attached: true})
}

// childDurations sums, per span id, the durations of its direct
// children.
func childDurations(spans []span) map[int]int64 {
	out := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] += s.dur()
		}
	}
	return out
}

// selfRow is one line of the self-time table: a span name, how many
// times it ran, and the time it spent outside its child spans.
type selfRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SelfMs float64 `json:"self_ms"`
	Pct    float64 `json:"pct"`
}

// selfTimes computes each span's self time (its duration minus its
// direct children's) and sums it by span name over the spans whose op
// starts with opPrefix, largest first.
func selfTimes(spans []span, opPrefix string) []selfRow {
	childNs := childDurations(spans)
	byName := map[string]*selfRow{}
	var names []string
	var total float64
	for _, s := range spans {
		if !strings.HasPrefix(s.Op, opPrefix) {
			continue
		}
		row, ok := byName[s.Name]
		if !ok {
			row = &selfRow{Name: s.Name}
			byName[s.Name] = row
			names = append(names, s.Name)
		}
		self := ms(s.dur() - childNs[s.ID])
		row.Count++
		row.SelfMs += self
		total += self
	}
	rows := make([]selfRow, 0, len(names))
	for _, n := range names {
		r := *byName[n]
		if total > 0 {
			r.Pct = 100 * r.SelfMs / total
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMs > rows[j].SelfMs })
	return rows
}

// perOp sums, within each op whose id starts with opPrefix, the duration
// of every span called name (or only its self time), one value per op in
// ms.
func perOp(spans []span, name, opPrefix string, self bool) []float64 {
	childNs := childDurations(spans)
	sums := map[string]int64{}
	var ops []string
	for _, s := range spans {
		if s.Name != name || !strings.HasPrefix(s.Op, opPrefix) {
			continue
		}
		if _, ok := sums[s.Op]; !ok {
			ops = append(ops, s.Op)
		}
		d := s.dur()
		if self {
			d -= childNs[s.ID]
		}
		sums[s.Op] += d
	}
	out := make([]float64, 0, len(ops))
	for _, op := range ops {
		out = append(out, ms(sums[op]))
	}
	return out
}

// coverage returns, per root span of the ops starting with opPrefix, the
// percentage of its duration its direct children cover.
func coverage(spans []span, root, opPrefix string) []float64 {
	childNs := childDurations(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == root && strings.HasPrefix(s.Op, opPrefix) && s.dur() > 0 {
			out = append(out, 100*float64(childNs[s.ID])/float64(s.dur()))
		}
	}
	return out
}

// writeTrace writes the spans and the self-time table as one JSON file.
func writeTrace(path, workload string, seed int64, t *tracer, table []selfRow) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		SelfTime []selfRow `json:"self_time"`
		Spans    []span    `json:"spans"`
	}{workload, seed, table, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// printSelfTimes renders the self-time table for humans.
func printSelfTimes(w io.Writer, title string, rows []selfRow) {
	fmt.Fprintf(w, "self time, %s:\n", title)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %6d spans %12.3f ms %6.2f%%\n", r.Name, r.Count, r.SelfMs, r.Pct)
	}
}
