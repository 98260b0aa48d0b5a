package pact

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/netgen"
	"repro/internal/sim"
	"repro/internal/stamp"
)

// TestEquation20 reproduces the paper's illustrative example exactly: the
// 100-segment, 250 Ω / 1.35 pF RC ladder reduced at 5 GHz with 5%
// tolerance yields a single pole near 4.7 GHz and the admittance matrices
// of Eq. (20):
//
//	G = [4 −4 0; −4 4 0; 0 0 32] mΩ⁻¹
//	C = [443 225 −547; 225 457 −547; −547 −547 1094] fF.
func TestEquation20(t *testing.T) {
	deck := netgen.Ladder(100, 250, 1.35e-12)
	ex, err := stamp.Extract(deck)
	if err != nil {
		t.Fatal(err)
	}
	model, stats, err := ReduceSystem(ex.Sys, Options{FMax: 5e9, Tol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PolesFound != 1 {
		t.Fatalf("found %d poles, want 1", stats.PolesFound)
	}
	pole := model.PoleFreqs()[0]
	if math.Abs(pole-4.7e9) > 0.15e9 {
		t.Fatalf("pole at %.3g Hz, want ~4.7 GHz", pole)
	}
	g, c := model.Matrices()
	wantG := [3][3]float64{
		{4e-3, -4e-3, 0},
		{-4e-3, 4e-3, 0},
		{0, 0, 32e-3},
	}
	wantC := [3][3]float64{
		{443e-15, 225e-15, -547e-15},
		{225e-15, 457e-15, -547e-15},
		{-547e-15, -547e-15, 1094e-15},
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if d := math.Abs(g.At(i, j) - wantG[i][j]); d > 0.02e-3 {
				t.Errorf("G(%d,%d) = %v, want %v (Eq. 20)", i, j, g.At(i, j), wantG[i][j])
			}
			if d := math.Abs(c.At(i, j) - wantC[i][j]); d > 2e-15 {
				t.Errorf("C(%d,%d) = %v, want %v (Eq. 20)", i, j, c.At(i, j), wantC[i][j])
			}
		}
	}
	if !model.CheckPassive(1e-9) {
		t.Error("Eq. 20 model must be passive")
	}
}

func TestReduceStringPipeline(t *testing.T) {
	deck := netgen.Ladder(40, 250, 1.35e-12)
	out, red, err := ReduceString(deck.String(), Options{FMax: 5e9, Tol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if red.ReducedNodes >= red.OriginalNodes {
		t.Fatalf("reduction grew the deck: %d -> %d nodes", red.OriginalNodes, red.ReducedNodes)
	}
	if !strings.Contains(out, ".end") {
		t.Error("output is not a complete deck")
	}
	// The output must re-parse.
	if _, err := ParseString(out); err != nil {
		t.Fatalf("reduced deck does not re-parse: %v", err)
	}
}

func TestReduceDeckKeepsDevicesAndControls(t *testing.T) {
	deck := netgen.InverterPair(30, 250, 1.35e-12, netgen.LineFull)
	deck.Controls = append(deck.Controls, ".tran 0.05n 20n")
	red, err := ReduceDeck(deck, Options{FMax: 5e9, Tol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	nm := 0
	for _, e := range red.Deck.Elements {
		if e.Name()[0] == 'm' {
			nm++
		}
	}
	if nm != 4 {
		t.Fatalf("reduced deck has %d MOSFETs, want 4", nm)
	}
	if len(red.Deck.Controls) != 1 {
		t.Fatalf("controls lost: %v", red.Deck.Controls)
	}
	if len(red.Deck.Models) != 2 {
		t.Fatal("models lost")
	}
}

// TestReducedDeckSimulates is the end-to-end RCFIT check: the reduced
// inverter-pair deck must simulate and track the original waveform, the
// comparison Figure 3 makes.
func TestReducedDeckSimulates(t *testing.T) {
	orig := netgen.InverterPair(40, 250, 1.35e-12, netgen.LineFull)
	red, err := ReduceDeck(orig, Options{FMax: 5e9, Tol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	run := func(d *Deck) (*sim.TranResult, *sim.Circuit) {
		c, err := sim.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Transient(6e-9, 0.02e-9)
		if err != nil {
			t.Fatal(err)
		}
		return r, c
	}
	ro, co := run(orig)
	rr, cr := run(red.Deck)
	io2, _ := co.NodeIndex("out2")
	ir2, _ := cr.NodeIndex("out2")
	maxErr := 0.0
	for _, tt := range []float64{0.5e-9, 1.5e-9, 2e-9, 2.5e-9, 3e-9, 4e-9, 5e-9} {
		d := math.Abs(ro.At(io2, tt) - rr.At(ir2, tt))
		if d > maxErr {
			maxErr = d
		}
	}
	if maxErr > 0.35 { // 7% of the 5 V swing
		t.Fatalf("reduced deck waveform deviates by %v V", maxErr)
	}
}

func TestReduceSystemACAccuracy(t *testing.T) {
	// Substrate-style mesh: reduced admittance within tolerance below
	// fmax (the Figure 5 property) on a small mesh.
	deck, ports, err := netgen.Mesh3D(netgen.MeshOpts{NX: 5, NY: 5, NZ: 4, REdge: 400, CSurf: 15e-15, NPorts: 9})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := stamp.Extract(deck, ports...)
	if err != nil {
		t.Fatal(err)
	}
	fmax := 3e9
	model, _, err := ReduceSystem(ex.Sys, Options{FMax: fmax, Tol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{1e8, 1e9, fmax} {
		s := complex(0, 2*math.Pi*f)
		want, err := ex.Sys.Y(s)
		if err != nil {
			t.Fatal(err)
		}
		got := model.Y(s)
		scale := 0.0
		for _, v := range want.Data {
			if a := cmplx.Abs(v); a > scale {
				scale = a
			}
		}
		maxd := 0.0
		for i := range got.Data {
			if d := cmplx.Abs(got.Data[i] - want.Data[i]); d > maxd {
				maxd = d
			}
		}
		if maxd > 0.05*scale {
			t.Fatalf("f=%g: error %g exceeds 5%% of %g", f, maxd, scale)
		}
	}
}

func TestCutoffFrequencyExport(t *testing.T) {
	if f := CutoffFrequency(1e9, 0.05); math.Abs(f/1e9-3.04) > 0.01 {
		t.Errorf("CutoffFrequency = %v", f)
	}
}

func TestDeterminism(t *testing.T) {
	deck := netgen.Ladder(60, 250, 1.35e-12)
	_, r1, err := ReduceString(deck.String(), Options{FMax: 20e9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, r2, err := ReduceString(deck.String(), Options{FMax: 20e9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Model.K() != r2.Model.K() {
		t.Fatal("same seed, different pole counts")
	}
	for i := range r1.Model.Lambda {
		if r1.Model.Lambda[i] != r2.Model.Lambda[i] {
			t.Fatal("same seed, different poles")
		}
	}
}

// TestReducedModelGOMAXPROCSInvariant pins the end-to-end determinism
// contract of the parallel front end: the reduced model a deck produces
// — poles, connection rows, port matrices, every float64 bit — must not
// depend on the worker count. The grid is big enough to engage the
// chunked stamping loop (well past one 2048-element chunk), the pooled
// row chunks of the triplet→CSR build, and the supernodal kernel (at least 512
// internal nodes), so a scheduling leak anywhere in
// stamp → sparse → order → factor shows up as a bit difference here.
func TestReducedModelGOMAXPROCSInvariant(t *testing.T) {
	deck, ports, err := netgen.PowerGrid(netgen.PowerGridPreset(3600))
	if err != nil {
		t.Fatal(err)
	}
	text := deck.String()
	opts := Options{FMax: 5e9, Tol: 0.05, ExtraPorts: ports}
	reduceAt := func(procs int) *Model {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		_, red, err := ReduceString(text, opts)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return red.Model
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	ref := reduceAt(1)
	for _, procs := range []int{2, 4, 8} {
		got := reduceAt(procs)
		if got.K() != ref.K() {
			t.Fatalf("GOMAXPROCS=%d: %d poles, serial %d", procs, got.K(), ref.K())
		}
		for name, pair := range map[string][2][]float64{
			"Lambda": {got.Lambda, ref.Lambda},
			"A":      {got.A.Data, ref.A.Data},
			"B":      {got.B.Data, ref.B.Data},
			"R":      {got.R.Data, ref.R.Data},
		} {
			g, r := bits(pair[0]), bits(pair[1])
			if len(g) != len(r) {
				t.Fatalf("GOMAXPROCS=%d: %s length %d, serial %d", procs, name, len(g), len(r))
			}
			for i := range g {
				if g[i] != r[i] {
					t.Fatalf("GOMAXPROCS=%d: %s[%d] = %x, serial %x — reduced model is not bit-identical",
						procs, name, i, g[i], r[i])
				}
			}
		}
	}
}

func TestVerify(t *testing.T) {
	deck := netgen.Ladder(50, 250, 1.35e-12)
	red, err := ReduceDeck(deck, Options{FMax: 5e9, Tol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := red.Verify(5e9, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.RelErr > 0.06 {
			t.Fatalf("f=%g: verify error %.2f%% above tolerance", p.Freq, 100*p.RelErr)
		}
	}
	// Errors are reported against an actual system.
	if red.Sys == nil {
		t.Fatal("Sys not retained")
	}
}

// TestHierarchicalDeckReduces drives a .subckt deck through the whole
// RCFIT flow: flattening, extraction, reduction, realization.
func TestHierarchicalDeckReduces(t *testing.T) {
	spice := `hierarchical rc line
.model nch nmos vto=0.7 kp=60u
.model pch pmos vto=-0.7 kp=25u
.subckt seg a b
r1 a b 25
c1 b 0 135f
.ends
vdd vdd 0 dc 5
vin in 0 dc 0 pulse(0 5 1n 0.1n 0.1n 8n 20n)
mp1 o1 in vdd vdd pch w=20u l=1u
mn1 o1 in 0 0 nch w=10u l=1u
x1 o1 m1 seg
x2 m1 m2 seg
x3 m2 m3 seg
x4 m3 m4 seg
x5 m4 m5 seg
x6 m5 m6 seg
x7 m6 m7 seg
x8 m7 m8 seg
x9 m8 m9 seg
x10 m9 o2 seg
mp2 o3 o2 vdd vdd pch w=10u l=1u
mn2 o3 o2 0 0 nch w=5u l=1u
.end
`
	out, red, err := ReduceString(spice, Options{FMax: 5e9, Tol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if red.Stats.Internal != 9 {
		t.Fatalf("internal nodes = %d, want 9 (flattened chain)", red.Stats.Internal)
	}
	if red.ReducedNodes >= red.OriginalNodes {
		t.Fatal("no reduction achieved")
	}
	if _, err := ParseString(out); err != nil {
		t.Fatalf("reduced hierarchical deck does not re-parse: %v", err)
	}
	// And it simulates.
	c, err := sim.Build(red.Deck)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DC(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineProperty drives randomly generated RC decks through the
// whole flow and asserts the structural invariants: the reduced deck
// re-parses, the model is passive, poles are real negative, and the DC
// admittance is preserved.
func TestPipelineProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random connected RC deck: a resistor spanning tree over nodes
		// n0..nK plus random extra R/C, a driver and an observer.
		k := 4 + rng.Intn(12)
		var b strings.Builder
		fmt.Fprintln(&b, "random rc deck")
		fmt.Fprintln(&b, "v1 n0 0 dc 1")
		fmt.Fprintln(&b, "iobs n"+fmt.Sprint(k-1)+" 0 dc 0")
		for i := 1; i < k; i++ {
			fmt.Fprintf(&b, "rt%d n%d n%d %g\n", i, rng.Intn(i), i, 10+990*rng.Float64())
		}
		for e := 0; e < k; e++ {
			i, j := rng.Intn(k), rng.Intn(k)
			if i != j && rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "rx%d n%d n%d %g\n", e, i, j, 10+990*rng.Float64())
			} else {
				fmt.Fprintf(&b, "cx%d n%d 0 %gf\n", e, i, 1+200*rng.Float64())
			}
		}
		fmt.Fprintln(&b, ".end")
		fmaxHz := math.Pow(10, 8+2*rng.Float64())
		out, red, err := ReduceString(b.String(), Options{FMax: fmaxHz, Tol: 0.02 + 0.1*rng.Float64()})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if _, err := ParseString(out); err != nil {
			return false
		}
		if !red.Model.CheckPassive(1e-8) {
			return false
		}
		for _, lam := range red.Model.Lambda {
			if !(lam > 0) {
				return false
			}
		}
		// DC exactness.
		y0, err := red.Sys.Y(0)
		if err != nil {
			return false
		}
		g0 := red.Model.Y(0)
		for i := range y0.Data {
			if cmplx.Abs(y0.Data[i]-g0.Data[i]) > 1e-8*(1+cmplx.Abs(y0.Data[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRealizedDeckACThroughSimulator drives the realized reduced deck
// (which legally contains negative-valued capacitors) through the
// simulator's AC analysis and compares the input impedance with the
// model's analytic Y — validating both the realization and the
// simulator's handling of negative elements.
func TestRealizedDeckACThroughSimulator(t *testing.T) {
	deck := netgen.Ladder(80, 250, 1.35e-12)
	red, err := ReduceDeck(deck, Options{FMax: 5e9, Tol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// The ladder deck drives port p1 with a 1 A AC current source (i1 has
	// ac 1), so V(p1) in the AC solution is Z11 of the network (port p2's
	// probe draws nothing).
	c, err := sim.Build(red.Deck)
	if err != nil {
		t.Fatal(err)
	}
	freqs := []float64{1e8, 1e9, 5e9}
	res, err := c.AC(freqs)
	if err != nil {
		t.Fatal(err)
	}
	mag, err := res.Mag("p1")
	if err != nil {
		t.Fatal(err)
	}
	for k, f := range freqs {
		s := complex(0, 2*math.Pi*f)
		y := red.Model.Y(s)
		// Z11 from the 2x2 model admittance.
		det := y.At(0, 0)*y.At(1, 1) - y.At(0, 1)*y.At(1, 0)
		z11 := y.At(1, 1) / det
		if math.Abs(mag[k]-cmplx.Abs(z11)) > 1e-3*cmplx.Abs(z11) {
			t.Fatalf("f=%g: sim |Z11| = %v, model %v", f, mag[k], cmplx.Abs(z11))
		}
	}
}

// TestAsSubcktRoundTrip: the subckt-wrapped reduced deck must re-parse
// (flattening the instance) and simulate identically to the flat form.
func TestAsSubcktRoundTrip(t *testing.T) {
	orig := netgen.InverterPair(30, 250, 1.35e-12, netgen.LineFull)
	flat, err := ReduceDeck(orig, Options{FMax: 5e9, Tol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := ReduceDeck(orig, Options{FMax: 5e9, Tol: 0.05, AsSubckt: true})
	if err != nil {
		t.Fatal(err)
	}
	text := wrapped.Deck.String()
	if !strings.Contains(text, ".subckt pactnet") || !strings.Contains(text, "xpact1") {
		t.Fatalf("subckt form missing:\n%s", text)
	}
	if wrapped.ReducedR != flat.ReducedR || wrapped.ReducedC != flat.ReducedC {
		t.Fatalf("element counts differ: %d/%d vs %d/%d",
			wrapped.ReducedR, wrapped.ReducedC, flat.ReducedR, flat.ReducedC)
	}
	reparsed, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate both forms and compare.
	run := func(d *Deck) (*sim.TranResult, int) {
		c, err := sim.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Transient(3e-9, 0.02e-9)
		if err != nil {
			t.Fatal(err)
		}
		idx, ok := c.NodeIndex("out2")
		if !ok {
			t.Fatal("out2 missing")
		}
		return r, idx
	}
	rf, i1 := run(flat.Deck)
	rw, i2 := run(reparsed)
	for _, tt := range []float64{0.5e-9, 1.5e-9, 2.5e-9} {
		if d := math.Abs(rf.At(i1, tt) - rw.At(i2, tt)); d > 1e-4 {
			t.Fatalf("t=%g: flat vs subckt differ by %v", tt, d)
		}
	}
}

// TestPaperScaleSubstrate runs the real Table 2 mesh (1521 nodes, 25
// ports) end to end; skipped under -short.
func TestPaperScaleSubstrate(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in short mode")
	}
	deck, ports, err := netgen.Mesh3D(netgen.SmallMeshOpts())
	if err != nil {
		t.Fatal(err)
	}
	ex, err := stamp.Extract(deck, ports...)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Sys.M != 25 || ex.Sys.N != 1496 {
		t.Fatalf("mesh = %d/%d, want 25/1496", ex.Sys.M, ex.Sys.N)
	}
	counts := map[float64]int{3e9: 0, 1e9: 0, 300e6: 0}
	for fmax := range counts {
		model, _, err := ReduceSystem(ex.Sys, Options{FMax: fmax, Tol: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		counts[fmax] = model.K()
		if !model.CheckPassive(1e-8) {
			t.Fatalf("fmax=%g: lost passivity", fmax)
		}
	}
	// Table 2 shape: 0 poles at 300 MHz, 1 at 1 GHz, several at 3 GHz.
	if counts[300e6] != 0 || counts[1e9] != 1 || counts[3e9] < 4 {
		t.Fatalf("pole counts = %v, want 0/1/several (Table 2 shape)", counts)
	}
}

func TestResiduePruneOptionFlowsThrough(t *testing.T) {
	deck := netgen.Ladder(60, 250, 1.35e-12)
	full, err := ReduceDeck(deck, Options{FMax: 100e9})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := ReduceDeck(deck, Options{FMax: 100e9, ResiduePruneTol: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Model.K() >= full.Model.K() {
		t.Fatalf("pruning kept %d >= %d poles; option not applied?", pruned.Model.K(), full.Model.K())
	}
	if !pruned.Model.CheckPassive(1e-9) {
		t.Fatal("pruned model lost passivity")
	}
}
