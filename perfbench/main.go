// Command perfbench is the repository's benchmark. It times the whole
// SPICE-in → reduced-SPICE-out path and the rcfitd service on generated
// decks, checks every output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload grid100k --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the per-layer metrics, from spans recorded around the calls into each
// layer, and the spans are written to a JSON file. README.md in this
// directory lists the workloads and which layer metric should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	clients  int
	log      io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: grid100k, wideband256-multipoint or service-mix")
	seed := fs.Int64("seed", 1, "seed of the generated decks")
	seconds := fs.Float64("seconds", 10, "how long the batch phase measures")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads(false)[*name]
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: usage: --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, clients: runtime.NumCPU(), log: stdout,
		traceOut: filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, *seed))}
	o, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := o.print(stdout, stderr, cfg.trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads(false) {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// outcome collects a run's operation counts, failures and metrics.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
}

// op counts one attempted operation, failed when err is not nil.
func (o *outcome) op(what string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf("%s: %v", what, err))
	}
}

// print writes the problems to stderr and the result as the last line of
// stdout: every metric of the mode's catalog, by name with its unit.
func (o *outcome) print(stdout, stderr io.Writer, traced bool) error {
	for i, p := range o.problems {
		if i == 20 {
			fmt.Fprintf(stderr, "perfbench: ... %d more failed checks\n", len(o.problems)-i)
			break
		}
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runWorkload sets up w several times, runs its batch decks for
// cfg.seconds with the service rounds interleaved, then checks every
// output.
func runWorkload(w *workload, cfg runConfig) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	for _, d := range perLayerMetrics {
		o.metrics[d.name] = 0 // layers a workload does not reach report 0
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set-up: generate the inputs, start the server and warm its hot set,
	// then reduce every batch deck once, untimed. Repeated, reporting the
	// median; the products of the last repetition are used.
	var (
		batch                        []instance
		want                         [][32]byte // each batch deck's warm-up output
		svc                          *svcRun
		setupCPU, setupWall, warmCPU []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if svc != nil {
			svc.srv.Close()
		}
		t0, c0 := time.Now(), cpuSeconds()
		rng := rand.New(rand.NewSource(cfg.seed))
		batch = nil
		if w.batch != nil {
			big, err := w.batch.generate(rng)
			if err != nil {
				return nil, err
			}
			batch = []instance{big}
		}
		var err error
		if svc, err = prepareService(w, rng); err != nil {
			return nil, err
		}
		if w.batch == nil {
			batch = svc.decks()
		}
		w0 := cpuSeconds()
		want = want[:0]
		for _, d := range batch {
			r, err := deckToSpice(d.text, d.class.opts)
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", d.class.label, err)
			}
			want = append(want, digest(r.out))
		}
		warmCPU = append(warmCPU, cpuSeconds()-w0)
		setupCPU = append(setupCPU, cpuSeconds()-c0)
		setupWall = append(setupWall, time.Since(t0).Seconds())
	}
	defer svc.srv.Close()
	o.metrics["setup_s"] = median(setupCPU)
	fmt.Fprintf(cfg.log, "setup: %d repetitions, CPU s %v, wall s %v\n", len(setupCPU), roundAll(setupCPU, 4), roundAll(setupWall, 4))

	// The service rounds are spread evenly over the passes the warm-up
	// predicts fit in cfg.seconds.
	phase := time.Now()
	var totals svcTotals
	rounds := func(due int) error {
		for totals.rounds < min(due, serviceRounds) {
			if err := svc.round(cfg.clients, tr, &totals); err != nil {
				return err
			}
		}
		return nil
	}
	passes := max(1, int(cfg.seconds/median(warmCPU)))
	last, err := runBatch(batch, want, passes, cfg, tr, o, rounds)
	if err != nil {
		return nil, err
	}
	if err := rounds(serviceRounds); err != nil {
		return nil, err
	}
	serviceMetrics(w, &totals, cfg, o)
	measureS := time.Since(phase).Seconds()
	phase = time.Now()

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.metrics["peak_rss_mb"] = rss

	if w.batch != nil {
		pct, err := verify(last, w.batch.opts)
		o.op("batch deck output", err)
		o.metrics["max_rel_err_pct"] = pct
		o.metrics["reduced_elements"] = float64(last.reducedRC)
		addCounters(o.metrics, last, batch[0].text, 1)
	}
	checkService(w, svc, &totals, cfg, tr, o)
	fmt.Fprintf(cfg.log, "phases: setup %.1f s, batch and service %.1f s, checks %.1f s\n",
		sum(setupWall), measureS, time.Since(phase).Seconds())

	if cfg.trace {
		layerTimes(o, tr.spans, "deck")
		table := selfTimes(tr.spans, "deck")
		printSelfTimes(cfg.log, w.name+" traced decks", table)
		printSelfTimes(cfg.log, w.name+" service requests", selfTimes(tr.spans, "req"))
		if err := writeTrace(cfg.traceOut, w.name, cfg.seed, tr, table); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.log, "trace: %d spans written to %s\n", len(tr.spans), cfg.traceOut)
	}
	return o, nil
}

// minPasses is the fewest timed passes over the batch decks a run makes,
// however long each takes; a traced run alternates untraced and traced
// passes and makes at least this many of each.
const minPasses = 3

// runBatch reduces the batch decks one at a time, pass after pass, for
// cfg.seconds. Before each timed deck it forces a GC and returns the
// freed memory to the OS, so every deck starts from the same heap state
// and no background scavenging of the previous deck's garbage is charged
// to it; the memory counters are read outside the timed region. Every
// output must equal the warm-up's. After pass p it brings the service
// rounds up to their share of p out of the expected passes. It returns
// the last deck's result for the output checks.
func runBatch(batch []instance, want [][32]byte, passes int, cfg runConfig, tr *tracer, o *outcome, rounds func(due int) error) (reduced, error) {
	var untraced, traced, walls, allocs, gcs, pauses []float64
	var last reduced
	start := time.Now()
	for pass := 0; ; pass++ {
		traceThis := cfg.trace && pass%2 == 1
		for i, d := range batch {
			debug.FreeOSMemory()
			m0 := memSnapshot()
			t0, c0 := time.Now(), cpuSeconds()
			var r reduced
			var err error
			if traceThis {
				r, err = deckToSpiceTraced(tr, fmt.Sprintf("deck%d.%d", pass, i), d.text, d.class.opts)
			} else {
				r, err = deckToSpice(d.text, d.class.opts)
			}
			cpu, wall := cpuSeconds()-c0, time.Since(t0).Seconds()
			m1 := memSnapshot()
			if err == nil {
				err = sameDigest(digest(r.out), want[i])
			}
			o.op("batch deck "+d.class.label, err)
			if err != nil {
				continue
			}
			last = r
			if traceThis {
				traced = append(traced, cpu)
				continue
			}
			untraced = append(untraced, cpu)
			walls = append(walls, wall)
			allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/mb)
			gcs = append(gcs, float64(m1.NumGC-m0.NumGC))
			pauses = append(pauses, float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
		}
		if err := rounds((serviceRounds*(pass+1) + passes - 1) / passes); err != nil {
			return reduced{}, err
		}
		untracedPasses, tracedPasses := pass+1, 0
		if cfg.trace {
			untracedPasses, tracedPasses = (pass+2)/2, (pass+1)/2
		}
		enough := untracedPasses >= minPasses && (!cfg.trace || tracedPasses >= minPasses)
		if enough && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
	}
	fmt.Fprintf(cfg.log, "batch: %d decks, CPU s/deck median %.4g (quartiles %.4g, %.4g), wall median %.4g; traced CPU median %.4g; MB allocated/deck median %.6g\n",
		len(untraced), median(untraced), quantile(untraced, 0.25), quantile(untraced, 0.75), median(walls), median(traced), median(allocs))
	if len(batch) == 1 {
		fmt.Fprintf(cfg.log, "batch: CPU s/deck %v, wall s/deck %v, MB allocated/deck %v\n",
			roundAll(untraced, 4), roundAll(walls, 4), roundAll(allocs, 7))
	}
	o.metrics["deck_to_spice_s"] = median(untraced)
	o.metrics["alloc_mb_per_deck"] = median(allocs)
	o.metrics["runtime.gc_cycles_per_deck"] = median(gcs)
	o.metrics["runtime.gc_pause_ms_per_deck"] = median(pauses)
	if cfg.trace {
		o.metrics["trace.overhead_ms"] = 1000 * (median(traced) - median(untraced))
	}
	return last, nil
}

func sameDigest(got, want [32]byte) error {
	if got != want {
		return fmt.Errorf("output digest %x differs from the first output's %x", got[:6], want[:6])
	}
	return nil
}

// serviceMetrics reports what the service rounds measured: the CPU
// demand percentiles of the serial requests and the closed loop's
// throughput with the hypervisor's steal time taken out of its wall time.
func serviceMetrics(w *workload, t *svcTotals, cfg runConfig, o *outcome) {
	var demand, hitMs, missMs, walls []float64
	for _, r := range t.serial {
		demand = append(demand, 1000*r.cpu)
		walls = append(walls, 1000*r.wall)
		if r.hit {
			hitMs = append(hitMs, 1000*r.cpu)
		} else {
			missMs = append(missMs, 1000*r.cpu)
		}
	}
	o.metrics["svc_p50_ms"] = quantile(demand, 0.50)
	o.metrics["svc_p99_ms"] = quantile(demand, 0.99)
	o.metrics["svc_capacity_rps"] = float64(len(t.closed)) / (t.closedWall - t.closedSteal/float64(cfg.clients))
	o.metrics["service.hit_ms"] = median(hitMs)
	o.metrics["service.miss_ms"] = median(missMs)
	if w.batch == nil {
		// service-mix reports its allocation per request.
		o.metrics["alloc_mb_per_deck"] = float64(t.serialAlloc) / mb / float64(len(t.serial))
	}
	fmt.Fprintf(cfg.log, "service: %d rounds; serial %d requests: CPU p50 %.3f ms, p99 %.3f ms (wall p50 %.3f ms, p99 %.3f ms); closed loop %d requests, %d clients: %.1f/s without steal, %.1f/s wall\n",
		t.rounds, len(t.serial), o.metrics["svc_p50_ms"], o.metrics["svc_p99_ms"], quantile(walls, 0.5), quantile(walls, 0.99),
		len(t.closed), cfg.clients, o.metrics["svc_capacity_rps"], float64(len(t.closed))/t.closedWall)
}

// checkService reduces every deck the service was sent directly through
// pact, checks each output, and requires each miss reply to carry the
// same reduced deck and each hit to equal the miss that filled the
// cache. It also asserts the exact hit, miss, follower and shed counts.
// On service-mix, whose batch decks are these same decks, the direct
// reductions also give the accuracy and size metrics.
func checkService(w *workload, svc *svcRun, res *svcTotals, cfg runConfig, tr *tracer, o *outcome) {
	decks := svc.decks()
	refs := make([][32]byte, len(decks))
	var errs, elems []float64
	counters := map[string]float64{}
	for i, d := range decks {
		r, err := deckToSpice(d.text, d.class.opts)
		if err != nil {
			o.op("direct reduction "+d.class.label, err)
			continue
		}
		refs[i] = digest(r.out)
		pct, err := verify(r, d.class.opts)
		o.op("direct reduction output "+d.class.label, err)
		errs = append(errs, pct)
		elems = append(elems, float64(r.reducedRC))
		addCounters(counters, r, d.text, float64(len(decks)))
	}
	if w.batch == nil {
		o.metrics["reduced_elements"] = mean(elems)
		o.metrics["max_rel_err_pct"] = maxOf(errs)
		for _, d := range perLayerMetrics {
			if v, ok := counters[d.name]; ok {
				o.metrics[d.name] = v
			}
		}
	}
	fmt.Fprintf(cfg.log, "direct reductions: %d decks, worst error %.4f%%\n", len(errs), maxOf(errs))

	// Every miss reply (the hot set's warm-up and each fresh deck) must
	// carry the direct reduction's bytes; every hit must equal its warm-up.
	var outside []float64
	checkMiss := func(what string, rep reply, want [32]byte) {
		resp, err := missResult(rep)
		switch {
		case rep.code != http.StatusOK:
			err = fmt.Errorf("status %d: %s", rep.code, rep.body)
		case err != nil:
		case resp.Cache != "miss":
			err = fmt.Errorf("cache %q, want a miss", resp.Cache)
		default:
			err = sameDigest(digest(resp.Deck), want)
			outside = append(outside, 1000*rep.wall-ms(resp.ElapsedNs))
			tr.attach("service.reduce", rep.span, resp.ElapsedNs)
		}
		o.op(what, err)
	}
	for i, rep := range svc.warm {
		checkMiss("hot-set warm-up reply", rep, refs[i])
	}
	hotSlots, freshSlots := 0, 0
	slots := append(append([]slot(nil), svc.serial...), svc.closed...)
	for k, rep := range append(append([]reply(nil), res.serial...), res.closed...) {
		s := slots[k]
		if !s.hot {
			freshSlots++
			checkMiss("fresh-deck reply", rep, refs[len(svc.hot)+s.idx])
			continue
		}
		hotSlots++
		var err error
		switch {
		case rep.code != http.StatusOK:
			err = fmt.Errorf("status %d", rep.code)
		case !rep.hit:
			err = fmt.Errorf("hot deck was not a cache hit")
		case rep.sum != svc.warm[s.idx].sum:
			err = fmt.Errorf("hit differs from the miss that filled the cache")
		}
		o.op("hot-deck reply", err)
	}
	o.metrics["service.miss_outside_ms"] = median(outside)

	snap := svc.srv.Snapshot()
	o.metrics["service.hits"] = float64(snap.Cache.Hits)
	o.metrics["service.misses"] = float64(snap.Cache.Misses)
	o.metrics["service.followers"] = float64(snap.Flights.Followers)
	o.metrics["service.shed"] = float64(snap.Shed)
	var err error
	misses := len(svc.hot) + freshSlots
	if snap.Cache.Hits != int64(hotSlots) || snap.Cache.Misses != int64(misses) ||
		snap.Flights.Followers != 0 || snap.Shed != 0 || snap.Failed != 0 {
		err = fmt.Errorf("hits %d misses %d followers %d shed %d failed %d, want hits %d misses %d and no followers, shed or failures",
			snap.Cache.Hits, snap.Cache.Misses, snap.Flights.Followers, snap.Shed, snap.Failed, hotSlots, misses)
	}
	o.op("service counters", err)
	fmt.Fprintf(cfg.log, "service counters: hits %d, misses %d, followers %d, shed %d\n",
		snap.Cache.Hits, snap.Cache.Misses, snap.Flights.Followers, snap.Shed)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func roundAll(xs []float64, digits int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.*g", digits, x)
	}
	return out
}
