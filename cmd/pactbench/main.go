// Command pactbench regenerates the paper's tables and figures.
//
// Usage:
//
//	pactbench -ex all            # every experiment, quick scale
//	pactbench -ex table2 -full   # one experiment at paper scale
//	pactbench -list              # list experiments
//	pactbench -json BENCH.json   # machine-readable kernel benchmarks
//
// Quick scale keeps every run under a few seconds; -full uses the paper's
// problem sizes (table4 at full scale takes roughly a minute).
//
// The -json mode times each parallelized kernel twice — at GOMAXPROCS=1
// and at the ambient GOMAXPROCS — and writes ns/op, allocations per op
// and the measured speedup together with the machine's CPU count, so a
// committed report stays interpretable.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pactbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pactbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ex := fs.String("ex", "all", "experiment to run (see -list)")
	full := fs.Bool("full", false, "run at paper scale instead of quick scale")
	list := fs.Bool("list", false, "list experiments and exit")
	outDir := fs.String("o", "", "write each experiment's report to <dir>/<name>.txt instead of stdout")
	jsonOut := fs.String("json", "", "benchmark the parallel kernels and write a JSON report to this file ('-' for stdout)")
	benchset := fs.String("benchset", "kernels", "benchmark set for -json: kernels (fast), factor (large-mesh supernodal factorization, solves and dense micro-kernels), scale (DAG-scheduled factorization of a 100k-node power grid at GOMAXPROCS 1/2/4/8), frontend (per-stage parse/stamp/assemble/order/symbolic on 100k-node presets), service (rcfitd request throughput/latency/cache hit rate), multipoint (single- vs multi-expansion-point vs clustered reduction of the wide-band 256-port bench, with oracle accuracy columns) or all")
	benchtime := fs.Duration("benchtime", 200*time.Millisecond, "minimum measuring time per benchmark leg for -json")
	gate := fs.String("gate", "", "after -json, compare the fresh report against this baseline report and fail on slowdowns beyond -threshold")
	threshold := fs.Float64("threshold", 3.0, "allowed fresh/baseline ns-per-op ratio for -gate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonOut != "" {
		if err := runBenchJSON(*jsonOut, *benchset, *benchtime, stdout); err != nil {
			return err
		}
		if *gate != "" {
			if *jsonOut == "-" {
				return fmt.Errorf("-gate needs the fresh report in a file, not '-'")
			}
			return runBenchGate(*gate, *jsonOut, *threshold, stdout)
		}
		return nil
	}
	if *gate != "" {
		return fmt.Errorf("-gate requires -json")
	}
	if *list {
		for _, e := range experiments.Registry {
			fmt.Fprintf(stdout, "%-10s %s\n", e.Name, e.Desc)
		}
		return nil
	}
	if *outDir == "" {
		return experiments.Run(*ex, stdout, *full)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	names := []string{*ex}
	if *ex == "all" {
		names = names[:0]
		for _, e := range experiments.Registry {
			names = append(names, e.Name)
		}
	}
	for _, name := range names {
		f, err := os.Create(filepath.Join(*outDir, name+".txt"))
		if err != nil {
			return err
		}
		err = experiments.Run(name, f, *full)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", filepath.Join(*outDir, name+".txt"))
	}
	return nil
}
