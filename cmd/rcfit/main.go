// Command rcfit is the SPICE-in, SPICE-out RC network reduction tool of
// the paper's Section 5: it parses a SPICE deck, extracts the RC
// networks, reduces them with PACT to the requested maximum frequency and
// error tolerance, and writes back a deck in which the RC networks are
// replaced by their reduced equivalents.
//
// Usage:
//
//	rcfit -fmax 1e9 [-tol 0.05] [-ports n1,n2] [-verify] [-o out.sp] [in.sp]
//	rcfit -fmax 1e9 -shifts 0,1e8,1e9 -portcluster 16 wideband.sp   # multi-point
//
// The request flags are pact.Options' request option table, shared with
// rcfitd's /reduce query. With no input file the deck is read from stdin.
//
// Exit codes: 0 on success, 2 when the reduction was canceled (SIGINT,
// SIGTERM, or the -timeout deadline) — cooperative cancellation is not
// a failure of the input — and 1 for every other error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	pact "repro"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rcfit:", err)
		if pact.IsCancellation(err) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rcfit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts pact.Options
	opts.RegisterFlags(fs)
	out := fs.String("o", "", "output file (default stdout)")
	verify := fs.Bool("verify", false, "sample exact vs reduced admittance and report errors on stderr")
	quiet := fs.Bool("q", false, "suppress the statistics report on stderr")
	verbose := fs.Bool("v", false, "add a factorization-kernel statistics line to the stderr report")
	timeout := fs.Duration("timeout", 0, "abort the reduction after this long (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := opts.Canonical()
	if err != nil {
		fs.Usage()
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	deck, err := pact.Parse(in)
	if err != nil {
		return err
	}
	red, err := pact.ReduceDeckContext(ctx, deck, opts)
	if err != nil {
		if pact.IsCancellation(err) && *timeout > 0 {
			return fmt.Errorf("reduction did not finish within -timeout %v: %w", *timeout, err)
		}
		return err
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := red.Deck.Write(w); err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(stderr, "rcfit: %d ports, %d internal nodes -> %d poles (cutoff %.4g Hz)\n",
			red.Stats.Ports, red.Stats.Internal, red.Model.K(), red.Stats.CutoffHz)
		fmt.Fprintf(stderr, "rcfit: nodes %d -> %d, R %d -> %d, C %d -> %d in %v\n",
			red.OriginalNodes, red.ReducedNodes, red.OriginalR, red.ReducedR,
			red.OriginalC, red.ReducedC, red.Elapsed)
		if red.Stats.Shifts > 0 {
			fmt.Fprintf(stderr, "rcfit: multi-point: %d expansion points (%d dropped), basis kept %d of %d columns, %d port clusters\n",
				red.Stats.Shifts, red.Stats.ShiftsDropped, red.Stats.BasisKept,
				red.Stats.BasisColumns, red.Stats.PortClusters)
		}
		if *verbose {
			kernel := "up-looking"
			if red.Stats.Supernodes > 0 {
				kernel = fmt.Sprintf("supernodal (%d panels)", red.Stats.Supernodes)
			}
			fmt.Fprintf(stderr, "rcfit: cholesky %s: %.4g GFLOP, %d solves, %d matvecs, peak factor %d B (%d B pooled scratch)\n",
				kernel, red.Stats.FactorFlops/1e9, red.Stats.Solves, red.Stats.MatVecs,
				red.Stats.CholeskyBytes, red.Stats.ScratchBytes)
			st := red.Stats.Stage
			multi := ""
			if red.Stats.Shifts > 0 {
				multi = fmt.Sprintf(", shift_factor %s, basis_union %s", stageMs(st.ShiftFactorNs), stageMs(st.BasisUnionNs))
			}
			fmt.Fprintf(stderr, "rcfit: stages: parse %s, stamp %s, assemble %s, order %s, symbolic %s, factor %s%s\n",
				stageMs(st.ParseNs), stageMs(st.StampNs), stageMs(st.AssembleNs),
				stageMs(st.OrderNs), stageMs(st.SymbolicNs), stageMs(st.FactorNs), multi)
		}
		for _, rec := range red.Stats.Recoveries {
			fmt.Fprintf(stderr, "rcfit: degraded: %s\n", rec.String())
		}
	}
	if *verify {
		return runVerify(red, opts.FMax, stderr)
	}
	return nil
}

// stageMs formats a nanosecond stage time for the -v report.
func stageMs(ns int64) string {
	return fmt.Sprintf("%.1fms", float64(ns)/1e6)
}

func runVerify(red *pact.Reduction, fmax float64, stderr io.Writer) error {
	pts, err := red.Verify(fmax, 7)
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Fprintf(stderr, "rcfit: verify f=%-12.4g rel err %.3f%%\n", p.Freq, 100*p.RelErr)
	}
	return nil
}
