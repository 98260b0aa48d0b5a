package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestTinyWorkloads runs a reduced-size version of every workload,
// untraced and traced, and checks that every output check passes and the
// result line carries exactly the catalog's metrics with their units.
func TestTinyWorkloads(t *testing.T) {
	for name, w := range workloads(true) {
		for _, traced := range []bool{false, true} {
			var log, stderr bytes.Buffer
			cfg := runConfig{seed: 7, seconds: 0.01, trace: traced, clients: 2, log: &log,
				traceOut: filepath.Join(t.TempDir(), "trace.json")}
			o, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", name, traced, err, log.String())
			}
			var out bytes.Buffer
			if err := o.print(&out, &stderr, traced); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatalf("%s: last line is not the result: %v", name, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d/%d\n%s", name, traced, r.Correct, r.Failed, r.Attempted, stderr.String())
			}
			defs := endToEndMetrics
			if traced {
				defs = perLayerMetrics
				if _, err := os.Stat(cfg.traceOut); err != nil {
					t.Errorf("%s: trace file not written: %v", name, err)
				}
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", name, d.name, m, d.unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

// TestScheduleExact pins the service schedule: exactly one never-sent
// deck per block, and every hot deck recurring before the LRU cache could
// evict it.
func TestScheduleExact(t *testing.T) {
	const hot, n = 24, 2000
	s := schedule(rand.New(rand.NewSource(3)), hot, n)
	if len(s) != n {
		t.Fatalf("%d slots, want %d", len(s), n)
	}
	last := make(map[int]int)
	for i, sl := range s {
		if i%freshEvery == 0 {
			fresh := 0
			for _, b := range s[i : i+freshEvery] {
				if !b.hot {
					fresh++
				}
			}
			if fresh != 1 {
				t.Fatalf("block at %d has %d fresh slots, want 1", i, fresh)
			}
		}
		if !sl.hot {
			continue
		}
		if p, ok := last[sl.idx]; ok && i-p > 4*hot {
			t.Fatalf("hot deck %d recurs after %d requests", sl.idx, i-p)
		}
		last[sl.idx] = i
	}
	if len(last) != hot {
		t.Fatalf("%d hot decks used, want %d", len(last), hot)
	}
}

// TestSelfTime checks the self-time arithmetic on a hand-made trace.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "deck", Op: "deck0", StartNs: 0, EndNs: 100e6},
		{ID: 2, Parent: 1, Name: "core.t1", Op: "deck0", StartNs: 0, EndNs: 60e6},
		{ID: 3, Parent: 2, Name: "chol.factor", Op: "deck0", StartNs: 0, EndNs: 45e6, Attached: true},
		{ID: 4, Parent: 1, Name: "netlist.parse", Op: "deck0", StartNs: 60e6, EndNs: 90e6},
	}
	rows := selfTimes(spans, "deck")
	want := map[string]float64{"chol.factor": 45, "netlist.parse": 30, "core.t1": 15, "deck": 10}
	for _, r := range rows {
		if r.SelfMs != want[r.Name] {
			t.Errorf("%s self %g ms, want %g", r.Name, r.SelfMs, want[r.Name])
		}
	}
	if rows[0].Name != "chol.factor" {
		t.Errorf("largest self time %s, want chol.factor", rows[0].Name)
	}
	if got := perOp(spans, "core.t1", "deck", true); len(got) != 1 || got[0] != 15 {
		t.Errorf("core.t1 self per op %v, want [15]", got)
	}
	if got := coverage(spans, "deck", "deck"); len(got) != 1 || got[0] != 90 {
		t.Errorf("coverage %v, want [90]", got)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads(false)
	if len(spec.Workloads) != len(ws) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(ws))
	}
	for _, w := range spec.Workloads {
		if ws[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is unknown", w.Name)
		}
	}
	for _, c := range []struct {
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEndMetrics}, {spec.PerLayer, perLayerMetrics}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.spec), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.spec[i].Name != d.name || c.spec[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, c.spec[i].Name, c.spec[i].Unit, d.name, d.unit)
			}
		}
	}
}
