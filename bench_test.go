// Benchmarks regenerating every table and figure of the paper (quick
// scale — run cmd/pactbench -full for paper-scale numbers) plus
// microbenchmarks of the numeric kernels. Each experiment benchmark
// prints the paper-style rows once, then times repeated runs.
package pact_test

import (
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	pact "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netgen"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/stamp"
)

var printedExperiments sync.Map

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	if _, done := printedExperiments.LoadOrStore(name, true); !done {
		fmt.Printf("\n================ %s (quick scale) ================\n", name)
		if err := experiments.Run(name, os.Stdout, false); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
	}
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(name, io.Discard, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEq20Ladder regenerates the Section 6 illustrative example: the
// reduced admittance matrices of Eq. (20) and the 4.7 GHz pole.
func BenchmarkEq20Ladder(b *testing.B) { benchExperiment(b, "eq20") }

// BenchmarkFig3InverterPair regenerates Figure 3: transient response of
// the inverter pair with the full, lumped, absent and PACT-reduced line.
func BenchmarkFig3InverterPair(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkTable1Fig4Multiplier regenerates Table 1 and Figure 4:
// reduction and simulation of multiplier interconnect parasitics.
func BenchmarkTable1Fig4Multiplier(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2Fig5Substrate regenerates Table 2 and Figure 5:
// substrate mesh reductions at three frequencies and the transimpedance
// sweep.
func BenchmarkTable2Fig5Substrate(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3Fig6Adder regenerates Table 3 and Figure 6: full-adder
// substrate-noise transient with original and reduced mesh.
func BenchmarkTable3Fig6Adder(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4LargeMesh regenerates Table 4: large-mesh reduction with
// the Section 4 memory accounting.
func BenchmarkTable4LargeMesh(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkSection4Complexity regenerates the Section 4 scaling
// comparison between LASO and the block-Padé method.
func BenchmarkSection4Complexity(b *testing.B) { benchExperiment(b, "sec4") }

// BenchmarkAblationAWEStability regenerates the stability ablation: AWE
// order sweep versus PACT's structural guarantees.
func BenchmarkAblationAWEStability(b *testing.B) { benchExperiment(b, "awe") }

// --- microbenchmarks of the kernels ---------------------------------

func meshSystem(b *testing.B) *core.System {
	b.Helper()
	deck, ports, err := netgen.Mesh3D(netgen.SmallMeshOpts())
	if err != nil {
		b.Fatal(err)
	}
	ex, err := stamp.Extract(deck, ports...)
	if err != nil {
		b.Fatal(err)
	}
	return ex.Sys
}

// BenchmarkReduceLadder100 times the full PACT reduction of the paper's
// 100-segment ladder.
func BenchmarkReduceLadder100(b *testing.B) {
	deck := netgen.Ladder(100, 250, 1.35e-12)
	ex, err := stamp.Extract(deck)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Reduce(ex.Sys, core.Options{FMax: 5e9, Tol: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReduceSubstrateMesh times the Table 2 reduction (1521 nodes,
// 25 ports, 3 GHz).
func BenchmarkReduceSubstrateMesh(b *testing.B) {
	sys := meshSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Reduce(sys, core.Options{FMax: 3e9, Tol: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymbolicAndFactor times analysis plus numeric Cholesky of the
// mesh internal conductance block.
func BenchmarkSymbolicAndFactor(b *testing.B) {
	sys := meshSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sym, _ := order.Analyze(sys.D, order.MinimumDegree)
		if _, _, err := core.Transform1(sys, core.Options{FMax: 1e9, Ordering: order.MinimumDegree}); err != nil {
			b.Fatal(err)
		}
		_ = sym
	}
}

// BenchmarkExactYEvaluation times one exact Y(jω) evaluation of the mesh
// (complex LDLᵀ factorization + 25 port solves), the per-frequency cost
// of full-network AC analysis in Table 2.
func BenchmarkExactYEvaluation(b *testing.B) {
	sys := meshSystem(b)
	if _, err := sys.Y(complex(0, 1e9)); err != nil { // warm the symbolic cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Y(complex(0, 2e9)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReducedYEvaluation times the same evaluation on the reduced
// model — the speedup that makes Table 2's AC sweep cheap.
func BenchmarkReducedYEvaluation(b *testing.B) {
	sys := meshSystem(b)
	model, _, err := core.Reduce(sys, core.Options{FMax: 3e9, Tol: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Y(complex(0, 2e9))
	}
}

// BenchmarkTransientInverterPair times the Figure 3 transient of the full
// 100-segment line through the SPICE-class simulator.
func BenchmarkTransientInverterPair(b *testing.B) {
	deck := netgen.InverterPair(100, 250, 1.35e-12, netgen.LineFull)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := sim.Build(deck)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Transient(2e-9, 0.05e-9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRCFITPipeline times the whole SPICE-in/SPICE-out flow on the
// ladder deck.
func BenchmarkRCFITPipeline(b *testing.B) {
	text := netgen.Ladder(100, 250, 1.35e-12).String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pact.ReduceString(text, pact.Options{FMax: 5e9, Tol: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSparsify regenerates the sparsity-enhancement
// threshold sweep (element count versus accuracy).
func BenchmarkAblationSparsify(b *testing.B) { benchExperiment(b, "sparsify") }

// BenchmarkAblationOrdering regenerates the fill-reducing-ordering
// comparison (minimum degree vs RCM vs natural).
func BenchmarkAblationOrdering(b *testing.B) { benchExperiment(b, "ordering") }

// BenchmarkYSweepParallel times the 81-point exact AC sweep of the Table 2
// mesh using all cores (the serial per-point cost is
// BenchmarkExactYEvaluation).
func BenchmarkYSweepParallel(b *testing.B) {
	sys := meshSystem(b)
	freqs := sim.LogSpace(10e6, 10e9, 81)
	if _, err := sys.YSweep(freqs[:2]); err != nil { // warm symbolic cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.YSweep(freqs); err != nil {
			b.Fatal(err)
		}
	}
}
