package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"

	pact "repro"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/stamp"
)

// reduced is one deck-to-SPICE result with what the output checks need.
type reduced struct {
	out       string
	model     *core.ReducedModel
	sys       *core.System
	stats     *core.Stats
	reducedRC int // R and C cards in the reduced deck
}

// deckToSpice is the end-to-end path the benchmark times: SPICE text in,
// reduced SPICE text out, through the public pact API.
func deckToSpice(text string, opts pact.Options) (reduced, error) {
	deck, err := netlist.ParseString(text)
	if err != nil {
		return reduced{}, fmt.Errorf("parse: %w", err)
	}
	red, err := pact.ReduceDeck(deck, opts)
	if err != nil {
		return reduced{}, err
	}
	return reduced{
		out:       red.Deck.String(),
		model:     red.Model,
		sys:       red.Sys,
		stats:     red.Stats,
		reducedRC: red.ReducedR + red.ReducedC,
	}, nil
}

// deckToSpiceTraced produces the same bytes as deckToSpice, but calls
// the layers pact.ReduceDeck composes one by one so each call gets a
// span; the stage times the program already reports become attached
// children. The output checks require its bytes to equal the untraced
// path's, so the decomposition cannot drift from pact.ReduceDeck.
func deckToSpiceTraced(tr *tracer, op, text string, opts pact.Options) (reduced, error) {
	root := tr.begin("deck", 0, op)
	defer tr.end(root)

	sp := tr.begin("netlist.parse", root, op)
	deck, err := netlist.ParseString(text)
	tr.end(sp)
	if err != nil {
		return reduced{}, fmt.Errorf("parse: %w", err)
	}

	sp = tr.begin("stamp.extract", root, op)
	ex, err := stamp.Extract(deck, opts.ExtraPorts...)
	tr.end(sp)
	if err != nil {
		return reduced{}, fmt.Errorf("extract: %w", err)
	}
	tr.attach("stamp.stamp", sp, ex.StampNs)
	tr.attach("stamp.assemble", sp, ex.AssembleNs)

	copts := core.Options{
		FMax: opts.FMax, Tol: opts.Tol, Ordering: opts.Ordering, LanczosMode: opts.LanczosMode,
		TwoPass: opts.TwoPass, MaxPoles: opts.MaxPoles, Seed: opts.Seed,
		Shifts: opts.Shifts, ShiftMoments: opts.ShiftMoments, PortClusters: opts.PortClusters,
		ResiduePruneTol: opts.ResiduePruneTol,
	}
	ctx := context.Background()
	var model *core.ReducedModel
	var stats *core.Stats
	if len(opts.Shifts) > 0 {
		// The multi-point transform is reachable only through Reduce, so
		// Transform 1 and the basis construction share one span.
		sp = tr.begin("core.reduce", root, op)
		model, stats, err = core.ReduceContext(ctx, ex.Sys, copts)
		tr.end(sp)
		if err != nil {
			return reduced{}, fmt.Errorf("reduce: %w", err)
		}
		attachTransform1(tr, sp, stats)
		tr.attach("core.shift_factor", sp, stats.Stage.ShiftFactorNs)
		tr.attach("core.basis_union", sp, stats.Stage.BasisUnionNs)
	} else {
		sp = tr.begin("core.t1", root, op)
		var t *core.Transformed
		t, stats, err = core.Transform1Context(ctx, ex.Sys, copts)
		tr.end(sp)
		if err != nil {
			return reduced{}, fmt.Errorf("transform 1: %w", err)
		}
		attachTransform1(tr, sp, stats)
		sp = tr.begin("core.t2", root, op)
		model, err = t.Transform2Context(ctx, copts)
		tr.end(sp)
		if err != nil {
			return reduced{}, fmt.Errorf("transform 2: %w", err)
		}
	}

	sp = tr.begin("stamp.realize", root, op)
	elems, _, err := stamp.Realize(model, ex.PortNames, stamp.RealizeOptions{Prefix: opts.Prefix, SparsifyTol: opts.SparsifyTol})
	tr.end(sp)
	if err != nil {
		return reduced{}, fmt.Errorf("realize: %w", err)
	}

	// pact.ReduceDeck's own work after realization: splice the reduced
	// cards into the deck and count nodes and elements on both sides.
	sp = tr.begin("pact.assemble", root, op)
	out := &netlist.Deck{
		Title:    deck.Title + " (pact reduced)",
		Models:   deck.Models,
		Controls: append([]string(nil), deck.Controls...),
	}
	out.Elements = append(out.Elements, ex.OtherElements...)
	out.Elements = append(out.Elements, elems...)
	counts := [...]int{
		len(deck.NodeNames()), len(deck.ElementsOfType('r')), len(deck.ElementsOfType('c')),
		len(out.NodeNames()), len(out.ElementsOfType('r')), len(out.ElementsOfType('c')),
	}
	tr.end(sp)

	sp = tr.begin("netlist.write", root, op)
	text = out.String()
	tr.end(sp)
	return reduced{out: text, model: model, sys: ex.Sys, stats: stats, reducedRC: counts[4] + counts[5]}, nil
}

func attachTransform1(tr *tracer, sp int, stats *core.Stats) {
	tr.attach("order.order", sp, stats.Stage.OrderNs)
	tr.attach("order.symbolic", sp, stats.Stage.SymbolicNs)
	tr.attach("chol.factor", sp, stats.Stage.FactorNs)
}

// errGateFactor sets the accuracy gate at this multiple of the requested
// tolerance. Tol bounds the error each dropped pole adds at FMax, and
// several dropped poles add up (the 5% ladders measure about 5.7%), so the
// gate catches a broken model while max_rel_err_pct and its bound catch
// accuracy drift.
const errGateFactor = 3

// verify checks one reduced deck: the output must re-parse with the R and
// C card count the reduction reported, the model must be passive with
// real non-negative poles, and its admittance must track the exact one
// within errGateFactor times the tolerance. It returns the worst relative
// error in percent.
func verify(r reduced, opts pact.Options) (float64, error) {
	d, err := netlist.ParseString(r.out)
	if err != nil {
		return 0, fmt.Errorf("reduced deck does not re-parse: %w", err)
	}
	if n := len(d.ElementsOfType('r')) + len(d.ElementsOfType('c')); n != r.reducedRC {
		return 0, fmt.Errorf("re-parsed deck has %d R/C cards, reduction reported %d", n, r.reducedRC)
	}
	if !r.model.CheckPassive(1e-9) {
		return 0, fmt.Errorf("reduced model is not passive")
	}
	for i, l := range r.model.Lambda {
		if math.IsNaN(l) || math.IsInf(l, 0) || l < 0 {
			return 0, fmt.Errorf("pole %d has eigenvalue %g: not a real non-negative pole", i, l)
		}
	}
	pct, err := maxRelErrPct(r.sys, r.model, opts.FMax)
	if err != nil {
		return 0, err
	}
	if gate := errGateFactor * 100 * opts.Tol; !(pct <= gate) {
		return pct, fmt.Errorf("reduced model error %.3g%% exceeds %.3g%%", pct, gate)
	}
	return pct, nil
}

// maxRelErrPct is the worst admittance error of the reduced model
// against the exact System.Y at f_max/100, f_max/10 and f_max, in
// percent, as pact's Reduction.Verify measures it: the largest entry
// error relative to the largest exact entry.
func maxRelErrPct(sys *core.System, model *core.ReducedModel, fmax float64) (float64, error) {
	pts, err := (&pact.Reduction{Sys: sys, Model: model}).Verify(fmax, 3)
	if err != nil {
		return 0, fmt.Errorf("exact admittance: %w", err)
	}
	worst := 0.0
	for _, p := range pts {
		worst = math.Max(worst, 100*p.RelErr)
	}
	return worst, nil
}

func digest(s string) [32]byte { return sha256.Sum256([]byte(s)) }
