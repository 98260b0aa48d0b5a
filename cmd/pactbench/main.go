// Command pactbench regenerates the paper's tables and figures.
//
// Usage:
//
//	pactbench -ex all            # every experiment, quick scale
//	pactbench -ex table2 -full   # one experiment at paper scale
//	pactbench -list              # list experiments
//	pactbench -ex all -o reports # one <name>.txt report per experiment
//
// Quick scale keeps every run under a few seconds; -full uses the paper's
// problem sizes (table4 at full scale takes roughly a minute).
//
// Performance is measured elsewhere: perfbench/ runs the end-to-end
// workloads, and the kernel micro-benchmarks are testing.B benchmarks in
// their packages (go test -run '^$' -bench . ./internal/chol/ ...).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

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
	if err := fs.Parse(args); err != nil {
		return err
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
	names, err := experimentNames(*ex)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
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

// experimentNames expands -ex into registry names ("all" is every
// experiment, in paper order) and rejects an unknown name before any
// report file is created.
func experimentNames(ex string) ([]string, error) {
	var names []string
	for _, e := range experiments.Registry {
		if ex == "all" || e.Name == ex {
			names = append(names, e.Name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (see -list)", ex)
	}
	return names, nil
}
