package stamp

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/netlist"
)

func mustParse(t *testing.T, deck string) *netlist.Deck {
	t.Helper()
	d, err := netlist.ParseString(deck)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestExtractPortDetection(t *testing.T) {
	deck := mustParse(t, `driver with rc line
v1 in 0 dc 5
m1 drv in 0 0 nch w=10u l=1u
r1 drv mid 100
c1 mid 0 1p
r2 mid out 100
c2 out 0 1p
m2 sink out 0 0 nch w=10u l=1u
rload sink 0 1k
.model nch nmos vto=0.7
.end
`)
	ex, err := Extract(deck)
	if err != nil {
		t.Fatal(err)
	}
	// drv touches m1 and r1 -> port; out touches c2/r2 and m2 -> port;
	// sink touches rload and m2 -> port; mid is internal.
	if len(ex.PortNames) != 3 {
		t.Fatalf("ports = %v, want [drv out sink]", ex.PortNames)
	}
	wantPorts := map[string]bool{"drv": true, "out": true, "sink": true}
	for _, p := range ex.PortNames {
		if !wantPorts[p] {
			t.Fatalf("unexpected port %q", p)
		}
	}
	if len(ex.InternalNames) != 1 || ex.InternalNames[0] != "mid" {
		t.Fatalf("internal = %v, want [mid]", ex.InternalNames)
	}
	if ex.Sys.M != 3 || ex.Sys.N != 1 {
		t.Fatalf("system %dx%d, want 3 ports 1 internal", ex.Sys.M, ex.Sys.N)
	}
	if len(ex.OtherElements) != 3 {
		t.Fatalf("other elements = %d, want 3 (v1, m1, m2)", len(ex.OtherElements))
	}
}

func TestExtractStampValues(t *testing.T) {
	deck := mustParse(t, `two resistors one cap
v1 a 0 dc 1
r1 a b 2
r2 b 0 4
c1 a b 3
c2 b 0 5
.end
`)
	ex, err := Extract(deck)
	if err != nil {
		t.Fatal(err)
	}
	// a is the only port (touches v1); b internal.
	if len(ex.PortNames) != 1 || ex.PortNames[0] != "a" {
		t.Fatalf("ports = %v", ex.PortNames)
	}
	sys := ex.Sys
	if got := sys.A.At(0, 0); got != 0.5 {
		t.Errorf("A[0][0] = %v, want 0.5 (1/r1)", got)
	}
	if got := sys.D.At(0, 0); got != 0.75 {
		t.Errorf("D[0][0] = %v, want 0.75 (1/2+1/4)", got)
	}
	if got := sys.Q.At(0, 0); got != -0.5 {
		t.Errorf("Q[0][0] = %v, want -0.5", got)
	}
	if got := sys.B.At(0, 0); got != 3 {
		t.Errorf("B[0][0] = %v, want 3", got)
	}
	if got := sys.E.At(0, 0); got != 8 {
		t.Errorf("E[0][0] = %v, want 8 (3+5)", got)
	}
	if got := sys.R.At(0, 0); got != -3 {
		t.Errorf("R[0][0] = %v, want -3", got)
	}
}

func TestExtractExtraPorts(t *testing.T) {
	deck := mustParse(t, `pure rc
v1 a 0 dc 1
r1 a b 1
r2 b c 1
c1 c 0 1p
.end
`)
	ex, err := Extract(deck, "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.PortNames) != 2 {
		t.Fatalf("ports = %v, want [a c]", ex.PortNames)
	}
	if _, err := Extract(deck, "nosuch"); err == nil {
		t.Error("nonexistent extra port accepted")
	}
}

// TestExtractNormalizesExtraPorts checks that forced port names go
// through the parser's node normalizer: a card's "R2 N1 N2 100" reads as
// nodes n1 and n2, so "N2", " n2" and "gnd" must name n2 and ground.
func TestExtractNormalizesExtraPorts(t *testing.T) {
	deck := mustParse(t, `mixed case
V1 N0 0 DC 1
R1 N0 N1 100
R2 N1 N2 100
C1 N2 GND 1P
.END
`)
	for _, ports := range [][]string{{"N2"}, {"n1", " n2"}, {" N2 ", "n2"}} {
		ex, err := Extract(deck, ports...)
		if err != nil {
			t.Fatalf("ports %q: %v", ports, err)
		}
		found := false
		for _, p := range ex.PortNames {
			found = found || p == "n2"
		}
		if !found {
			t.Fatalf("ports %q: port names %q lack n2", ports, ex.PortNames)
		}
	}
	ports := []string{" N2"}
	if _, err := Extract(deck, ports...); err != nil || ports[0] != " N2" {
		t.Fatalf("caller's port list changed to %q (err %v)", ports, err)
	}
	if _, err := Extract(deck, "GND"); err == nil || !strings.Contains(err.Error(), `"0"`) {
		t.Fatalf("ground as a forced port: err %v, want it refused as node \"0\"", err)
	}
}

func TestExtractDropsDanglingComponent(t *testing.T) {
	deck := mustParse(t, `dangling island
v1 a 0 dc 1
r1 a b 1
c1 b 0 1p
r9 x y 5
c9 y x 1p
.end
`)
	ex, err := Extract(deck)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.DroppedElements) != 2 {
		t.Fatalf("dropped %d elements, want 2 (floating island)", len(ex.DroppedElements))
	}
	if len(ex.InternalNames) != 1 || ex.InternalNames[0] != "b" {
		t.Fatalf("internal = %v", ex.InternalNames)
	}
}

func TestExtractRejectsNonPassive(t *testing.T) {
	for _, card := range []string{"r1 a b -5", "r1 a b 0", "c1 a b -1p"} {
		deck := mustParse(t, "bad\nv1 a 0 dc 1\n"+card+"\nr2 b 0 1\n.end\n")
		if _, err := Extract(deck); err == nil {
			t.Errorf("card %q accepted", card)
		}
	}
}

func TestExtractGroundedBothEnds(t *testing.T) {
	deck := mustParse(t, `degenerate
v1 a 0 dc 1
r1 a 0 10
r2 0 0 5
c1 0 gnd 1p
.end
`)
	ex, err := Extract(deck)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Sys.M != 1 || ex.Sys.N != 0 {
		t.Fatalf("system %d/%d", ex.Sys.M, ex.Sys.N)
	}
	if got := ex.Sys.A.At(0, 0); got != 0.1 {
		t.Errorf("A = %v, want 0.1", got)
	}
}

// stampElements stamps realized R/C cards into dense matrices using the
// given node-name order, accepting negative element values (reduced
// networks may contain them).
func stampElements(elems []netlist.Element, names []string) (g, c *dense.Mat) {
	idx := map[string]int{netlist.Ground: -1}
	for i, n := range names {
		idx[n] = i
	}
	n := len(names)
	g, c = dense.New(n, n), dense.New(n, n)
	for _, e := range elems {
		var mat *dense.Mat
		var val float64
		switch el := e.(type) {
		case *netlist.Resistor:
			mat, val = g, 1/el.Value
		case *netlist.Capacitor:
			mat, val = c, el.Value
		}
		ns := e.Nodes()
		i, j := idx[ns[0]], idx[ns[1]]
		if i >= 0 {
			mat.Add(i, i, val)
		}
		if j >= 0 {
			mat.Add(j, j, val)
		}
		if i >= 0 && j >= 0 {
			mat.Add(i, j, -val)
			mat.Add(j, i, -val)
		}
	}
	return g, c
}

func ladderDeck(nseg int, rtot, ctot float64) string {
	var b strings.Builder
	fmt.Fprintln(&b, "rc ladder")
	fmt.Fprintln(&b, "v1 n0 0 dc 1")
	fmt.Fprintln(&b, "rterm n"+fmt.Sprint(nseg)+" 0 1meg") // receiver load marks far end
	// Mark far end as port by attaching a non-RC device instead: use an
	// isource of 0.
	fmt.Fprintln(&b, "iobs n"+fmt.Sprint(nseg)+" 0 dc 0")
	rseg := rtot / float64(nseg)
	cseg := ctot / float64(nseg)
	for i := 0; i < nseg; i++ {
		fmt.Fprintf(&b, "r%d n%d n%d %g\n", i+1, i, i+1, rseg)
		fmt.Fprintf(&b, "c%d n%d 0 %g\n", i+1, i+1, cseg)
	}
	fmt.Fprintln(&b, ".end")
	return b.String()
}

func TestRealizeMatchesModelMatrices(t *testing.T) {
	deck := mustParse(t, ladderDeck(30, 250, 1.35e-12))
	ex, err := Extract(deck)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := core.Reduce(ex.Sys, core.Options{FMax: 5e9, Tol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	elems, internal, err := Realize(model, ex.PortNames, RealizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	names := append(append([]string(nil), ex.PortNames...), internal...)
	g, c := stampElements(elems, names)
	gw, cw := model.Matrices()
	for i := 0; i < g.R; i++ {
		for j := 0; j < g.C; j++ {
			if math.Abs(g.At(i, j)-gw.At(i, j)) > 1e-9*(1+math.Abs(gw.At(i, j))) {
				t.Fatalf("G realize mismatch at (%d,%d): %v vs %v", i, j, g.At(i, j), gw.At(i, j))
			}
			if math.Abs(c.At(i, j)-cw.At(i, j)) > 1e-9*(1+math.Abs(cw.At(i, j))) {
				t.Fatalf("C realize mismatch at (%d,%d): %v vs %v", i, j, c.At(i, j), cw.At(i, j))
			}
		}
	}
}

func TestRealizedNetworkAdmittanceMatchesOriginal(t *testing.T) {
	// End-to-end: extract -> reduce -> realize -> restamp -> compare
	// multiport admittance below fmax.
	deck := mustParse(t, ladderDeck(50, 250, 1.35e-12))
	ex, err := Extract(deck)
	if err != nil {
		t.Fatal(err)
	}
	fmax := 5e9
	model, _, err := core.Reduce(ex.Sys, core.Options{FMax: fmax, Tol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	elems, internal, err := Realize(model, ex.PortNames, RealizeOptions{SparsifyTol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	names := append(append([]string(nil), ex.PortNames...), internal...)
	gd, cd := stampElements(elems, names)
	m := ex.Sys.M
	for _, f := range []float64{1e8, 1e9, fmax} {
		s := complex(0, 2*math.Pi*f)
		want, err := ex.Sys.Y(s)
		if err != nil {
			t.Fatal(err)
		}
		// Schur-complement admittance of the realized network.
		k := len(internal)
		di := dense.NewC(k, k)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				di.Set(i, j, complex(gd.At(m+i, m+j), 0)+s*complex(cd.At(m+i, m+j), 0))
			}
		}
		var got *dense.CMat
		if k > 0 {
			fK, err := dense.FactorCLU(di)
			if err != nil {
				t.Fatal(err)
			}
			got = dense.NewC(m, m)
			for j := 0; j < m; j++ {
				col := make([]complex128, k)
				for i := 0; i < k; i++ {
					col[i] = complex(gd.At(m+i, j), 0) + s*complex(cd.At(m+i, j), 0)
				}
				fK.Solve(col)
				for i := 0; i < m; i++ {
					acc := complex(gd.At(i, j), 0) + s*complex(cd.At(i, j), 0)
					for kk := 0; kk < k; kk++ {
						acc -= (complex(gd.At(m+kk, i), 0) + s*complex(cd.At(m+kk, i), 0)) * col[kk]
					}
					got.Set(i, j, acc)
				}
			}
		} else {
			got = dense.NewC(m, m)
			for i := 0; i < m; i++ {
				for j := 0; j < m; j++ {
					got.Set(i, j, complex(gd.At(i, j), 0)+s*complex(cd.At(i, j), 0))
				}
			}
		}
		// Compare relative to the largest admittance entry.
		scale := 0.0
		for _, v := range want.Data {
			if a := cmplx.Abs(v); a > scale {
				scale = a
			}
		}
		if d := dense.MaxAbsDiff(got, want); d > 0.06*scale {
			t.Fatalf("f=%g: realized network deviates by %g (scale %g)", f, d, scale)
		}
	}
}

func TestRealizeBadPortCount(t *testing.T) {
	deck := mustParse(t, ladderDeck(5, 100, 1e-12))
	ex, err := Extract(deck)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := core.Reduce(ex.Sys, core.Options{FMax: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Realize(model, []string{"onlyone"}, RealizeOptions{}); err == nil && model.M != 1 {
		t.Error("port count mismatch accepted")
	}
}

func TestExtractNoRCElements(t *testing.T) {
	deck := mustParse(t, `no rc
v1 a 0 dc 5
m1 b a 0 0 nch w=1u l=1u
.model nch nmos vto=0.7
.end
`)
	ex, err := Extract(deck)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Sys.M != 0 || ex.Sys.N != 0 {
		t.Fatalf("system %d/%d, want empty", ex.Sys.M, ex.Sys.N)
	}
	if len(ex.OtherElements) != 2 {
		t.Fatalf("other = %d", len(ex.OtherElements))
	}
	model, _, err := core.Reduce(ex.Sys, core.Options{FMax: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	elems, internal, err := Realize(model, nil, RealizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 0 || len(internal) != 0 {
		t.Fatal("empty network realized elements")
	}
}
