package stamp

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/sparse"
)

// extractOracle is the string-keyed Extract the interned one replaced:
// every pass (classification, port detection, first-appearance order,
// union-find pruning, stamping) hashes node names. Its stamping loop is
// the serial form of the bucketed one — same triplet sequence, same
// error precedence — so it must agree with Extract bit for bit. Extra
// port names go through the same normalizer Extract applies.
func extractOracle(deck *netlist.Deck, extraPorts ...string) (*Extraction, error) {
	ex := &Extraction{}
	touchOther := map[string]bool{}
	for _, e := range deck.Elements {
		switch e.(type) {
		case *netlist.Resistor, *netlist.Capacitor:
			ex.RCElements = append(ex.RCElements, e)
		default:
			ex.OtherElements = append(ex.OtherElements, e)
			for _, n := range e.Nodes() {
				touchOther[n] = true
			}
		}
	}
	force := map[string]bool{}
	var forcedNames []string
	for _, p := range extraPorts {
		p = netlist.NormNode(p)
		forcedNames = append(forcedNames, p)
		force[p] = true
	}
	index := map[string]int{}
	var portNames, internalNames []string
	for _, e := range ex.RCElements {
		for _, n := range e.Nodes() {
			if n == netlist.Ground {
				continue
			}
			if _, seen := index[n]; seen {
				continue
			}
			index[n] = -1
			if touchOther[n] || force[n] {
				portNames = append(portNames, n)
			} else {
				internalNames = append(internalNames, n)
			}
		}
	}
	for _, p := range forcedNames {
		if _, seen := index[p]; !seen {
			return nil, fmt.Errorf("stamp: requested port %q does not touch the RC network", p)
		}
	}
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b string) { parent[find(a)] = find(b) }
	for _, n := range portNames {
		union(n, netlist.Ground)
	}
	for _, e := range ex.RCElements {
		ns := e.Nodes()
		union(ns[0], ns[1])
	}
	anchored := find(netlist.Ground)
	var kept []netlist.Element
	for _, e := range ex.RCElements {
		if find(e.Nodes()[0]) == anchored {
			kept = append(kept, e)
		} else {
			ex.DroppedElements = append(ex.DroppedElements, e)
		}
	}
	ex.RCElements = kept
	keepInternal := internalNames[:0]
	for _, n := range internalNames {
		if find(n) == anchored {
			keepInternal = append(keepInternal, n)
		}
	}
	internalNames = keepInternal
	m, n := len(portNames), len(internalNames)
	for i, name := range portNames {
		index[name] = i
	}
	for i, name := range internalNames {
		index[name] = m + i
	}
	gb := sparse.NewBuilder(m+n, m+n)
	cb := sparse.NewBuilder(m+n, m+n)
	for _, e := range ex.RCElements {
		b, val := cb, 0.0
		switch el := e.(type) {
		case *netlist.Resistor:
			if el.Value <= 0 {
				return nil, fmt.Errorf("stamp: resistor %s has non-positive value %g (network must be passive)", el.Ident, el.Value)
			}
			b, val = gb, 1/el.Value
		case *netlist.Capacitor:
			if el.Value < 0 {
				return nil, fmt.Errorf("stamp: capacitor %s has negative value %g (network must be passive)", el.Ident, el.Value)
			}
			val = el.Value
		}
		ns := e.Nodes()
		i, j := index[ns[0]], index[ns[1]]
		switch gi, gj := ns[0] == netlist.Ground, ns[1] == netlist.Ground; {
		case gi && gj:
		case gi:
			b.Append([]int{j}, []int{j}, []float64{val})
		case gj:
			b.Append([]int{i}, []int{i}, []float64{val})
		case i != j:
			b.Append([]int{i, j, i, j}, []int{i, j, j, i}, []float64{val, val, -val, -val})
		}
	}
	ports := make([]int, m)
	for i := range ports {
		ports[i] = i
	}
	sys, err := core.Partition(gb.Build(), cb.Build(), ports)
	if err != nil {
		return nil, err
	}
	ex.Sys = sys
	ex.PortNames = portNames
	ex.InternalNames = internalNames
	return ex, nil
}

// requireSameExtraction asserts that got (Extract) and want (the
// oracle) agree on everything the rest of the pipeline reads: node
// order, element partition, and the partitioned blocks bit for bit.
func requireSameExtraction(t *testing.T, got, want *Extraction) {
	t.Helper()
	sameStrings := func(what string, a, b []string) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d names, oracle has %d", what, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d] = %q, oracle has %q", what, i, a[i], b[i])
			}
		}
	}
	sameElems := func(what string, a, b []netlist.Element) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d elements, oracle has %d", what, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d] = %s, oracle has %s", what, i, a[i].Name(), b[i].Name())
			}
		}
	}
	sameStrings("PortNames", got.PortNames, want.PortNames)
	sameStrings("InternalNames", got.InternalNames, want.InternalNames)
	sameElems("RCElements", got.RCElements, want.RCElements)
	sameElems("OtherElements", got.OtherElements, want.OtherElements)
	sameElems("DroppedElements", got.DroppedElements, want.DroppedElements)
	if got.Sys.M != want.Sys.M || got.Sys.N != want.Sys.N {
		t.Fatalf("system %d/%d, oracle %d/%d", got.Sys.M, got.Sys.N, want.Sys.M, want.Sys.N)
	}
	for _, b := range []struct {
		name      string
		got, want *sparse.CSR
	}{
		{"A", got.Sys.A, want.Sys.A},
		{"B", got.Sys.B, want.Sys.B},
		{"Q", got.Sys.Q, want.Sys.Q},
		{"R", got.Sys.R, want.Sys.R},
		{"D", got.Sys.D, want.Sys.D},
		{"E", got.Sys.E, want.Sys.E},
	} {
		if !csrBitsEqual(b.got, b.want) {
			t.Fatalf("block %s differs from the oracle", b.name)
		}
	}
}

// checkAgainstOracle runs Extract and the oracle on one deck and
// requires the same extraction, or the same error, which it returns.
func checkAgainstOracle(t *testing.T, deck *netlist.Deck, ports ...string) error {
	t.Helper()
	got, err := Extract(deck, ports...)
	want, werr := extractOracle(deck, ports...)
	if (err == nil) != (werr == nil) {
		t.Fatalf("Extract error %v, oracle error %v", err, werr)
	}
	if err != nil {
		if err.Error() != werr.Error() {
			t.Fatalf("Extract error %q, oracle error %q", err, werr)
		}
		return err
	}
	requireSameExtraction(t, got, want)
	return nil
}

// TestExtractOracleGeneratedDecks compares Extract with the string-map
// oracle on every netgen family the benchmarks and experiments reduce,
// both as generated and after a write/parse round trip, at one and
// several GOMAXPROCS so the bucketed stamping loop runs with one and
// many workers.
func TestExtractOracleGeneratedDecks(t *testing.T) {
	type gen struct {
		name string
		make func() (*netlist.Deck, []string, error)
	}
	gens := []gen{
		{"powergrid", func() (*netlist.Deck, []string, error) {
			return netgen.PowerGrid(netgen.PowerGridPreset(20_000))
		}},
		{"ladder", func() (*netlist.Deck, []string, error) {
			return netgen.Ladder(400, 250, 1.35e-12), nil, nil
		}},
		{"clocktree", func() (*netlist.Deck, []string, error) {
			return netgen.ClockTree(netgen.ClockTreePreset(5_000))
		}},
		{"wideband", func() (*netlist.Deck, []string, error) {
			return netgen.WideBand(netgen.WideBandPreset(64))
		}},
		{"mesh", func() (*netlist.Deck, []string, error) {
			return netgen.Mesh3D(netgen.SmallMeshOpts())
		}},
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, g := range gens {
		deck, ports, err := g.make()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		parsed, err := netlist.ParseString(deck.String())
		if err != nil {
			t.Fatalf("%s: reparse: %v", g.name, err)
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			t.Run(fmt.Sprintf("%s/procs%d", g.name, procs), func(t *testing.T) {
				if err := checkAgainstOracle(t, deck, ports...); err != nil {
					t.Fatal(err)
				}
			})
			t.Run(fmt.Sprintf("%s/parsed/procs%d", g.name, procs), func(t *testing.T) {
				if err := checkAgainstOracle(t, parsed, ports...); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestExtractOracleHandBuilt covers the topologies the generators never
// emit: islands, degenerate cards, nodes only non-RC devices touch,
// flattened subcircuits, and forced ports (duplicated, unnormalized,
// missing).
func TestExtractOracleHandBuilt(t *testing.T) {
	cases := []struct {
		name  string
		deck  string
		ports []string
		fails bool
	}{
		{"floating island", `t
r9 x y 5
c9 y x 1p
v1 a 0 dc 1
r1 a b 1
r10 y z 2
c1 b 0 1p
r2 b c 3
.end
`, nil, false},
		{"grounded both ends", `t
v1 a 0 dc 1
r1 a 0 10
r2 0 0 5
c1 0 gnd 1p
r3 a b 1
.end
`, nil, false},
		{"shorted card", `t
v1 a 0 dc 1
r1 a b 10
r2 b b 5
c1 b b 1p
c2 b 0 2p
.end
`, nil, false},
		{"non-RC only nodes", `t
v1 in 0 dc 5
m1 drv in 0 sub nch w=10u l=1u
i1 x y dc 1m
l1 y z 1n
d1 z 0 dm
r1 drv mid 100
c1 mid 0 1p
r2 mid out 100
m2 sink out 0 0 nch w=10u l=1u
rload sink 0 1k
.model nch nmos vto=0.7
.model dm d
.end
`, nil, false},
		{"flattened subckt", `t
.subckt seg a b
r1 a m 10
c1 m 0 1p
r2 m b 10
.ends
v1 in 0 dc 1
x1 in n1 seg
x2 n1 n2 seg
x3 n2 out seg
i1 out 0 dc 0
.end
`, nil, false},
		{"forced ports", `t
v1 a 0 dc 1
r1 a b 1
r2 b c 1
c1 c 0 1p
r3 c d 2
.end
`, []string{"c", "B", " c", "d", "c"}, false},
		{"forced ground", `t
v1 a 0 dc 1
r1 a b 1
.end
`, []string{"b", "GND"}, true},
		{"forced port on island", `t
v1 a 0 dc 1
r1 a b 1
r9 x y 5
c9 y 0 1p
.end
`, []string{"x"}, false},
		{"forced port off network", `t
v1 a 0 dc 1
r1 a b 1
.end
`, []string{"nosuch"}, true},
		{"forced port only on a source", `t
v1 a 0 dc 1
v2 s 0 dc 1
r1 a b 1
.end
`, []string{"s"}, true},
		{"non-passive", `t
v1 a 0 dc 1
r1 a b 1
c1 b 0 -1p
r2 b 0 -3
.end
`, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			deck, err := netlist.ParseString(tc.deck)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkAgainstOracle(t, deck, tc.ports...); (err != nil) != tc.fails {
				t.Fatalf("error %v, want failure %v", err, tc.fails)
			}
		})
	}
}

// TestExtractOracleProgrammaticDeck covers decks built without the
// parser: element kinds Parse flattens away (an unexpanded subcircuit
// instance) and a "gnd" node Parse would have renamed.
func TestExtractOracleProgrammaticDeck(t *testing.T) {
	deck := &netlist.Deck{Elements: []netlist.Element{
		&netlist.VSource{Ident: "v1", N1: "a", N2: netlist.Ground},
		&netlist.XInstance{Ident: "x1", NodeList: []string{"b", "q"}, SubcktRef: "s"},
		&netlist.Resistor{Ident: "r1", N1: "a", N2: "b", Value: 3},
		&netlist.Capacitor{Ident: "c1", N1: "b", N2: "gnd", Value: 1e-12},
		&netlist.Resistor{Ident: "r2", N1: "gnd", N2: netlist.Ground, Value: 7},
	}}
	if err := checkAgainstOracle(t, deck); err != nil {
		t.Fatal(err)
	}
	ex, err := Extract(deck)
	if err != nil {
		t.Fatal(err)
	}
	if ex.DeckNodes != 4 || ex.DeckR != 2 || ex.DeckC != 1 {
		t.Fatalf("deck counts %d nodes %d r %d c, want 4/2/1", ex.DeckNodes, ex.DeckR, ex.DeckC)
	}
}
