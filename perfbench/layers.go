package main

// addCounters adds one reduction's sizes and work counters, divided by n,
// into acc: with n = 1 they are that deck's, summed over n decks their
// mean.
func addCounters(acc map[string]float64, r reduced, input string, n float64) {
	st := r.stats
	for _, c := range []struct {
		metric string
		v      float64
	}{
		{"netlist.in_mb", float64(len(input)) / mb},
		{"netlist.out_mb", float64(len(r.out)) / mb},
		{"chol.factor_gflop", st.FactorFlops / 1e9},
		{"chol.l_nnz", float64(st.CholeskyNNZ)},
		{"chol.scratch_mb", float64(st.ScratchBytes) / mb},
		{"core.solves", float64(st.Solves)},
		{"lanczos.iters", float64(st.LanczosIters)},
		{"lanczos.matvecs", float64(st.MatVecs)},
		{"lanczos.reorths", float64(st.Reorths)},
		{"core.poles_found", float64(st.PolesFound)},
		{"core.poles_kept", float64(r.model.K())},
		{"core.basis_columns", float64(st.BasisColumns)},
		{"core.basis_kept", float64(st.BasisKept)},
	} {
		acc[c.metric] += c.v / n
	}
}

// spanMetrics maps span names to the per-layer metric of their median
// per-deck duration.
var spanMetrics = []struct{ span, metric string }{
	{"netlist.parse", "netlist.parse_ms"},
	{"netlist.write", "netlist.write_ms"},
	{"stamp.extract", "stamp.extract_ms"},
	{"stamp.stamp", "stamp.stamp_ms"},
	{"stamp.assemble", "stamp.assemble_ms"},
	{"stamp.realize", "stamp.realize_ms"},
	{"order.order", "order.order_ms"},
	{"order.symbolic", "order.symbolic_ms"},
	{"chol.factor", "chol.factor_ms"},
	{"core.t1", "core.t1_ms"},
	{"core.t2", "core.t2_ms"},
	{"core.reduce", "core.reduce_ms"},
	{"core.shift_factor", "core.shift_factor_ms"},
	{"core.basis_union", "core.basis_union_ms"},
	{"pact.assemble", "pact.assemble_ms"},
}

// layerTimes fills the per-layer time metrics from the spans of the ops
// whose id starts with prefix: each is the median over those ops.
func layerTimes(o *outcome, spans []span, prefix string) {
	for _, m := range spanMetrics {
		o.metrics[m.metric] = median(perOp(spans, m.span, prefix, false))
	}
	o.metrics["core.t1_self_ms"] = median(perOp(spans, "core.t1", prefix, true))
	o.metrics["core.mp_self_ms"] = median(perOp(spans, "core.reduce", prefix, true))
	o.metrics["trace.coverage_pct"] = median(coverage(spans, "deck", prefix))
}
