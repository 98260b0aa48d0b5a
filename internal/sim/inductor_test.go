package sim

import (
	"math"
	"testing"

	"repro/internal/netlist"
)

func TestInductorDCShort(t *testing.T) {
	// At DC the inductor shorts node b to ground: the divider collapses.
	c := mustBuild(t, `rl divider
v1 a 0 dc 6
r1 a b 1k
l1 b 0 1u
.end
`)
	res, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	vb, _ := c.Voltage(res.X, "b")
	if math.Abs(vb) > 1e-6 {
		t.Fatalf("V(b) = %v, want 0 (inductor is a DC short)", vb)
	}
	// Branch current through the inductor (second branch unknown; v1 owns
	// the first): 6 V across 1 kΩ = 6 mA flowing N1 -> N2.
	il := res.X[c.nNodes+1]
	if math.Abs(il-6e-3) > 1e-8 {
		t.Fatalf("I(l1) = %v, want 6mA", il)
	}
	// And the source delivers it: I(v1) = -6 mA in the SPICE convention.
	iv := res.X[c.nNodes]
	if math.Abs(iv+6e-3) > 1e-8 {
		t.Fatalf("I(v1) = %v, want -6mA", iv)
	}
}

func TestInductorRLStepResponse(t *testing.T) {
	// Series RL driven by a step: i(t) = (V/R)(1 − exp(−tR/L)),
	// v_L(t) = V·exp(−tR/L). τ = L/R = 1 µs.
	c := mustBuild(t, `rl step
v1 a 0 dc 0 pulse(0 5 0 1p 1p 1 2)
r1 a b 1k
l1 b 0 1m
.end
`)
	res, err := c.Transient(5e-6, 5e-9)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := c.NodeIndex("b")
	tau := 1e-3 / 1e3
	for _, tt := range []float64{0.2e-6, 0.5e-6, 1e-6, 2e-6, 4e-6} {
		want := 5 * math.Exp(-tt/tau)
		if got := res.At(idx, tt); math.Abs(got-want) > 0.05 {
			t.Fatalf("t=%g: v_L=%v, want %v", tt, got, want)
		}
	}
}

func TestInductorLCResonance(t *testing.T) {
	// Series RLC band-pass: across R, |H| peaks at f0 = 1/(2π√(LC)) where
	// the reactances cancel, with |H(f0)| = 1.
	c := mustBuild(t, `series rlc
v1 a 0 dc 0 ac 1
l1 a b 1u
c1 b d 1n
r1 d 0 50
.end
`)
	f0 := 1 / (2 * math.Pi * math.Sqrt(1e-6*1e-9))
	res, err := c.AC([]float64{f0 / 10, f0, f0 * 10})
	if err != nil {
		t.Fatal(err)
	}
	mag, err := res.Mag("d")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mag[1]-1) > 1e-6 {
		t.Fatalf("|H(f0)| = %v, want 1 (reactances cancel)", mag[1])
	}
	if mag[0] > 0.2 || mag[2] > 0.2 {
		t.Fatalf("off-resonance |H| = %v / %v, want well below 1", mag[0], mag[2])
	}
}

// TestInductorRLFixedStepConverges drives the series RL step of
// TestInductorRLStepResponse at three fixed steps and checks the
// inductor voltage against the analytic v_b = 5·e^(−tR/L) at grid
// times: the error must fall as the square of the step (the
// trapezoidal rule is second order), and at h = τ/400 it must be below
// 20 µV.
func TestInductorRLFixedStepConverges(t *testing.T) {
	deck := `rl fixed
v1 a 0 dc 0 pulse(0 5 0 1p 1p 1 2)
r1 a b 1k
l1 b 0 1m
.end
`
	tau := 1e-3 / 1e3 // L/R
	maxErr := func(h float64) float64 {
		c := mustBuild(t, deck)
		res, err := c.Transient(5e-6, h)
		if err != nil {
			t.Fatal(err)
		}
		idx, _ := c.NodeIndex("b")
		worst := 0.0
		for _, tt := range []float64{0.5e-6, 1e-6, 3e-6} {
			worst = math.Max(worst, math.Abs(res.At(idx, tt)-5*math.Exp(-tt/tau)))
		}
		return worst
	}
	e20, e10, e5 := maxErr(20e-9), maxErr(10e-9), maxErr(2.5e-9)
	t.Logf("max |v_b − 5·e^(−t/τ)|: h=20ns %.3g, 10ns %.3g, 2.5ns %.3g", e20, e10, e5)
	// Halving the step must cut the error about 4×, quartering it 16×.
	if e20/e10 < 3 || e10/e5 < 12 {
		t.Fatalf("error does not fall as h²: %.3g, %.3g, %.3g", e20, e10, e5)
	}
	if e5 > 2e-5 {
		t.Fatalf("h=2.5ns: error %.3g V, want below 20 µV", e5)
	}
}

func TestInductorRejectsNonPositive(t *testing.T) {
	d := "bad\nl1 a 0 0\nv1 a 0 dc 1\n.end\n"
	deck, err := parseDeckText(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(deck); err == nil {
		t.Fatal("zero inductance accepted")
	}
}

func parseDeckText(s string) (*netlist.Deck, error) { return netlist.ParseString(s) }

// TestLCTankEnergyConservation exercises the trapezoidal integrator's
// A-stability: an undamped LC tank started from a charged capacitor must
// oscillate at 1/(2π√(LC)) with no numerical growth or decay over many
// cycles (the trapezoidal rule adds no artificial damping).
func TestLCTankEnergyConservation(t *testing.T) {
	// Charge the cap through a source that returns to zero instantly at
	// t=0 is awkward without switches; instead drive with a short current
	// impulse into the tank and then watch it ring.
	c := mustBuild(t, `lc tank
i1 0 top dc 0 pwl(0 0 1n 10m 2n 0)
l1 top 0 10u
c1 top 0 1n
.end
`)
	f0 := 1 / (2 * math.Pi * math.Sqrt(10e-6*1e-9))
	period := 1 / f0
	res, err := c.Transient(20*period, period/400)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := c.NodeIndex("top")
	// Measure peak amplitude over cycles 3-5 and cycles 17-19; they must
	// agree within 2%.
	peak := func(t0, t1 float64) float64 {
		p := 0.0
		for k, tt := range res.T {
			if tt < t0 || tt > t1 {
				continue
			}
			if v := math.Abs(res.X[k][idx]); v > p {
				p = v
			}
		}
		return p
	}
	early := peak(3*period, 5*period)
	late := peak(17*period, 19*period)
	if early < 1e-3 {
		t.Fatalf("tank barely rings: %v", early)
	}
	if math.Abs(late-early) > 0.02*early {
		t.Fatalf("numerical damping/growth: early peak %v, late peak %v", early, late)
	}
	// Ring frequency: count zero crossings in a window.
	crossings := 0
	for k := 1; k < len(res.T); k++ {
		if res.T[k] < 5*period || res.T[k] > 15*period {
			continue
		}
		if (res.X[k-1][idx] < 0) != (res.X[k][idx] < 0) {
			crossings++
		}
	}
	// 10 periods -> ~20 crossings.
	if crossings < 18 || crossings > 22 {
		t.Fatalf("zero crossings = %d over 10 periods, want ~20", crossings)
	}
}
