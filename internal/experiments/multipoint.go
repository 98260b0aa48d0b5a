package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/netgen"
)

// MultiPoint is the wide-band many-port comparison behind the
// multi-expansion-point mode: the graded-grid workload of
// `netgen -kind wideband` reduced single-point, multi-point, and
// cluster-thinned multi-point at one pole budget, each measured against
// the dense brute-force Y(s) oracle over three decades up to f_max. The
// quick variant runs the 64-port preset; -full runs the 256-port bench.
// Both presets have at least as many candidate columns (3 per port for
// the shifts {0, f_max}) as internal nodes, so every multi-point row
// takes the whole-space rule: the dense E′ eigenpath under the
// multi-point pole selector, with no union for the clusters to thin.
// The rows measure that selector against single-point truncation; the
// basis itself is measured where it projects, by the oracle suite in
// internal/core.
func MultiPoint(w io.Writer, full bool) error {
	ports := 64
	if full {
		ports = 256
	}
	deck, portNames, err := netgen.WideBand(netgen.WideBandPreset(ports))
	if err != nil {
		return err
	}
	ex, err := extractMesh(deck, portNames)
	if err != nil {
		return err
	}
	sys := ex.Sys
	const fmax = 2e10
	budget := 48
	if !full {
		budget = 24
	}
	base := core.Options{FMax: fmax, Tol: 0.05, MaxPoles: budget}
	multi2 := base
	multi2.Shifts = []float64{0, fmax}
	multi3 := base
	multi3.Shifts = []float64{0, fmax / 30, fmax}
	clustered := multi2
	clustered.PortClusters = 16
	freqs := core.OracleFreqs(fmax, 3, 5)

	o := netgen.WideBandPreset(ports)
	fmt.Fprintf(w, "wide-band bench: %dx%d graded grid (%g decades), %d ports, %d internal nodes\n",
		o.NX, o.NY, o.GradeDecades, sys.M, sys.N)
	fmt.Fprintf(w, "pole budget %d at every row; error is max rel ‖Y‖_F vs the dense oracle over [f_max/1000, f_max]\n\n", budget)
	fmt.Fprintf(w, "%-30s %6s %6s %6s %10s %14s\n",
		"mode", "poles", "cands", "kept", "reduce", "max rel err")
	for _, row := range []struct {
		name string
		opts core.Options
	}{
		{"single-point (classic PACT)", base},
		{"multi-point {0, fmax}", multi2},
		{"multi-point {0, fmax/30, fmax}", multi3},
		{"multi-point 2pt + 16 clusters", clustered},
	} {
		var model *core.ReducedModel
		var stats *core.Stats
		elapsed, err := timeIt(func() error {
			var rerr error
			model, stats, rerr = core.Reduce(sys, row.opts)
			return rerr
		})
		if err != nil {
			return fmt.Errorf("%s: %w", row.name, err)
		}
		errs, err := core.OracleMaxRelErrs(sys, []*core.ReducedModel{model}, freqs)
		if err != nil {
			return err
		}
		cands, kept := "-", "-"
		if stats.Shifts > 0 {
			cands = fmt.Sprintf("%d", stats.BasisColumns)
			kept = fmt.Sprintf("%d", stats.BasisKept)
		}
		fmt.Fprintf(w, "%-30s %6d %6s %6s %10s %13.3f%%\n",
			row.name, model.K(), cands, kept, elapsed.Round(time.Millisecond), 100*errs[0])
	}
	fmt.Fprintln(w, "\nevery row is passive by construction (congruence on the non-negative")
	fmt.Fprintln(w, "definite (D, E) pencil). Here the candidate columns of every multi-point")
	fmt.Fprintln(w, "row cover the internal space (cands >= internal nodes), so the union is")
	fmt.Fprintln(w, "skipped for the dense E' eigenpath and kept = internal nodes; the clusters")
	fmt.Fprintln(w, "have no union to thin. The equal-size accuracy win is the multi-point")
	fmt.Fprintln(w, "selector's, which spends the pole budget on band-weighted port coupling")
	fmt.Fprintln(w, "instead of the slowest modes, not the expansion points'. The oracle suite")
	fmt.Fprintln(w, "in internal/core measures the basis on fixtures where it projects.")
	return nil
}
