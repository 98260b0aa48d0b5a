package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metricDef names one reported metric and its unit. The two catalogs
// below are the benchmark's contract with BENCHMARK.json: an untraced
// run prints every end-to-end metric, a traced run every per-layer
// metric, each on every workload.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"deck_to_spice_s", "s"},
	{"alloc_mb_per_deck", "MB"},
	{"peak_rss_mb", "MB"},
	{"reduced_elements", "count"},
	{"max_rel_err_pct", "%"},
	{"svc_p50_ms", "ms"},
	{"svc_p99_ms", "ms"},
	{"svc_capacity_rps", "1/s"},
}

var perLayerMetrics = []metricDef{
	{"netlist.parse_ms", "ms"},
	{"netlist.in_mb", "MB"},
	{"netlist.write_ms", "ms"},
	{"netlist.out_mb", "MB"},
	{"stamp.extract_ms", "ms"},
	{"stamp.stamp_ms", "ms"},
	{"stamp.assemble_ms", "ms"},
	{"stamp.realize_ms", "ms"},
	{"order.order_ms", "ms"},
	{"order.symbolic_ms", "ms"},
	{"chol.factor_ms", "ms"},
	{"chol.factor_gflop", "GFLOP"},
	{"chol.l_nnz", "count"},
	{"chol.scratch_mb", "MB"},
	{"core.t1_ms", "ms"},
	{"core.t1_self_ms", "ms"},
	{"core.solves", "count"},
	{"core.t2_ms", "ms"},
	{"lanczos.iters", "count"},
	{"lanczos.matvecs", "count"},
	{"lanczos.reorths", "count"},
	{"core.poles_found", "count"},
	{"core.poles_kept", "count"},
	{"core.reduce_ms", "ms"},
	{"core.shift_factor_ms", "ms"},
	{"core.basis_union_ms", "ms"},
	{"core.mp_self_ms", "ms"},
	{"core.basis_columns", "count"},
	{"core.basis_kept", "count"},
	{"pact.assemble_ms", "ms"},
	{"service.hit_ms", "ms"},
	{"service.miss_ms", "ms"},
	{"service.miss_outside_ms", "ms"},
	{"service.hits", "count"},
	{"service.misses", "count"},
	{"service.followers", "count"},
	{"service.shed", "count"},
	{"runtime.gc_cycles_per_deck", "count"},
	{"runtime.gc_pause_ms_per_deck", "ms"},
	{"trace.coverage_pct", "%"},
	{"trace.overhead_ms", "ms"},
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// memSnapshot reads the allocation and GC counters. It stops the world,
// so callers read it only outside timed regions.
func memSnapshot() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM)
// in MB. Each workload runs in its own process, so the mark belongs to
// that workload alone.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("read peak rss: unexpected line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("read peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("read peak rss: %w", err)
	}
	return 0, fmt.Errorf("read peak rss: no VmHWM line in /proc/self/status")
}

// cpuSeconds returns the user plus system CPU time the process has used.
// The kernel does not charge hypervisor steal to the process, so on a
// shared virtual machine it tracks the work done far more steadily than
// the wall clock.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealSeconds returns the hypervisor steal time summed over all CPUs
// since boot, from /proc/stat: time a virtual CPU was runnable but the
// host ran something else.
func stealSeconds() (float64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, fmt.Errorf("read steal time: %w", err)
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("read steal time: unexpected /proc/stat line %q", line)
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0, fmt.Errorf("read steal time: %w", err)
	}
	return ticks / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/stat, which Linux fixes at 100
// on every architecture Go supports.
const clockTicks = 100

const mb = 1 << 20

func ms(ns int64) float64 { return float64(ns) / 1e6 }
