package netgen

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/chol"
	"repro/internal/netlist"
	"repro/internal/order"
	"repro/internal/stamp"
)

func TestPowerGridStructure(t *testing.T) {
	o := PowerGridOpts{NX: 8, NY: 8, RSeg: 0.8, CNode: 60e-15, NPorts: 5}
	deck, ports, err := PowerGrid(o)
	if err != nil {
		t.Fatal(err)
	}
	wantR := 7*8 + 8*7
	nr, nc, ni := 0, 0, 0
	for _, e := range deck.Elements {
		switch e.(type) {
		case *netlist.Resistor:
			nr++
		case *netlist.Capacitor:
			nc++
		case *netlist.ISource:
			ni++
		}
	}
	if nr != wantR || nc != 64 || ni != len(ports) {
		t.Fatalf("grid has %d R, %d C, %d probes; want %d R, 64 C, %d probes", nr, nc, ni, wantR, len(ports))
	}
	// The direct-construction deck must be a valid SPICE deck: write it
	// out and re-parse.
	deck2, err := netlist.ParseString(deck.String())
	if err != nil {
		t.Fatalf("power grid deck does not re-parse: %v", err)
	}
	if len(deck2.Elements) != len(deck.Elements) {
		t.Fatalf("round trip changed element count %d -> %d", len(deck.Elements), len(deck2.Elements))
	}
	ex, err := stamp.Extract(deck, ports...)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Sys.M != len(ports) || ex.Sys.M+ex.Sys.N != 64 {
		t.Fatalf("extraction: %d ports + %d internal, want %d ports over 64 nodes", ex.Sys.M, ex.Sys.N, len(ports))
	}
}

func TestClockTreeStructure(t *testing.T) {
	o := ClockTreeOpts{Levels: 4, RSeg: 2.5, CSeg: 4e-15, NLeafPorts: 4}
	deck, ports, err := ClockTree(o)
	if err != nil {
		t.Fatal(err)
	}
	n := ClockTreeNodes(4)
	if n != 31 {
		t.Fatalf("depth-4 tree has %d nodes, want 31", n)
	}
	if ports[0] != "t1" || len(ports) != 5 {
		t.Fatalf("ports = %v, want root + 4 leaves", ports)
	}
	ex, err := stamp.Extract(deck, ports...)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Sys.M+ex.Sys.N != n {
		t.Fatalf("extraction covers %d nodes, want %d", ex.Sys.M+ex.Sys.N, n)
	}
	if _, err := netlist.ParseString(deck.String()); err != nil {
		t.Fatalf("clock tree deck does not re-parse: %v", err)
	}
}

func TestScalePresetsReachRequestedSize(t *testing.T) {
	if o := PowerGridPreset(100_000); o.NX*o.NY < 100_000 {
		t.Fatalf("PowerGridPreset(1e5) = %dx%d, below target", o.NX, o.NY)
	}
	if o := ClockTreePreset(1_000_000); ClockTreeNodes(o.Levels) < 1_000_000 {
		t.Fatalf("ClockTreePreset(1e6) depth %d = %d nodes, below target", o.Levels, ClockTreeNodes(o.Levels))
	}
}

// scaleSmokeRecord is the machine-readable result of the million-node
// smoke: the front-end (stamp.Extract) and back-end (ordering through
// numeric factorization) wall times, split so a front-end regression is
// visible on its own instead of hiding inside an aggregate total. The
// committed baseline lives at reports/scale-smoke.json; a fresh run
// whose extract time exceeds twice the committed row fails the smoke.
type scaleSmokeRecord struct {
	Nodes       int   `json:"nodes"`
	ExtractNs   int64 `json:"extract_ns"`
	OrderNs     int64 `json:"order_ns"`
	SymbolicNs  int64 `json:"symbolic_ns"`
	FactorizeNs int64 `json:"factorize_ns"`
}

// scaleSmokeBaseline is the committed baseline path, relative to this
// package.
const scaleSmokeBaseline = "../../reports/scale-smoke.json"

// TestMillionNodeClockTreeFactorizes is the nightly scale smoke
// (PACT_SCALE_SMOKE=1): generate the 10⁶-node clock-tree preset, extract
// it, and run the DAG-scheduled supernodal factorization through a
// pooled workspace twice — the second pass re-using every buffer — to
// prove the million-node path completes without exhausting memory. It
// records the extract/factorize wall-time split (PACT_SCALE_OUT=path
// writes it as JSON) and fails when extraction takes more than twice the
// committed baseline's extract row — the gate that keeps the front end
// keeping pace with the factorizer. The factor takes minutes of
// machine-dependent arithmetic so it is reported, not gated; extraction
// is memory-bandwidth bound and far more stable across runners.
func TestMillionNodeClockTreeFactorizes(t *testing.T) {
	if os.Getenv("PACT_SCALE_SMOKE") == "" {
		t.Skip("set PACT_SCALE_SMOKE=1 to run the million-node smoke")
	}
	start := time.Now()
	o := ClockTreePreset(1_000_000)
	deck, ports, err := ClockTree(o)
	if err != nil {
		t.Fatal(err)
	}
	tExtract := time.Now()
	ex, err := stamp.Extract(deck, ports...)
	if err != nil {
		t.Fatal(err)
	}
	rec := scaleSmokeRecord{ExtractNs: time.Since(tExtract).Nanoseconds()}
	sys := ex.Sys
	rec.Nodes = sys.M + sys.N
	t.Logf("deck built+extracted in %v (extract %v = stamp %v + assemble %v): %d ports, %d internal nodes",
		time.Since(start), time.Duration(rec.ExtractNs),
		time.Duration(ex.StampNs), time.Duration(ex.AssembleNs), sys.M, sys.N)
	if rec.Nodes < 1_000_000 {
		t.Fatalf("smoke deck has only %d nodes", rec.Nodes)
	}
	deck = nil
	runtime.GC()

	sym, dperm := order.Analyze(sys.D, order.MinimumDegree)
	rec.OrderNs = sym.OrderNs
	rec.SymbolicNs = sym.SymbolicNs
	tFactor := time.Now()
	an, err := chol.Analyze(dperm, sym)
	if err != nil {
		t.Fatal(err)
	}
	ws := an.NewWorkspace()
	for pass := 0; pass < 2; pass++ {
		f, err := an.Factorize(dperm, ws)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if pass == 0 {
			rec.FactorizeNs = time.Since(tFactor).Nanoseconds()
			t.Logf("factorized %d nodes in %v (order %v, symbolic %v, factorize %v): %d supernodes, %d B factor (%d B scratch)",
				sys.N, time.Since(start), time.Duration(rec.OrderNs), time.Duration(rec.SymbolicNs),
				time.Duration(rec.FactorizeNs), f.Supernodes(), f.Bytes(), f.ScratchBytes())
		}
	}

	if out := os.Getenv("PACT_SCALE_OUT"); out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("write %s: %v", out, err)
		}
		t.Logf("wrote %s", out)
	}

	base, err := os.ReadFile(scaleSmokeBaseline)
	if err != nil {
		t.Logf("no committed baseline (%v); extract gate skipped", err)
		return
	}
	var want scaleSmokeRecord
	if err := json.Unmarshal(base, &want); err != nil {
		t.Fatalf("corrupt baseline %s: %v", scaleSmokeBaseline, err)
	}
	if want.ExtractNs > 0 && rec.ExtractNs > 2*want.ExtractNs {
		t.Fatalf("extract regression: %v vs committed %v (>2x); the front end no longer keeps pace",
			time.Duration(rec.ExtractNs), time.Duration(want.ExtractNs))
	}
	t.Logf("extract gate: %v vs committed %v (limit 2x)",
		time.Duration(rec.ExtractNs), time.Duration(want.ExtractNs))
}
