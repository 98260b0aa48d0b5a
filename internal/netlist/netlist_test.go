package netlist

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"100", 100},
		{"4.7k", 4.7e3},
		{"10kohm", 10e3},
		{"1.35pF", 1.35e-12},
		{"250", 250},
		{"5meg", 5e6},
		{"2MEG", 2e6},
		{"3g", 3e9},
		{"1t", 1e12},
		{"0.5u", 0.5e-6},
		{"15f", 15e-15},
		{"-2.5n", -2.5e-9},
		{"1e-3", 1e-3},
		{"1.5e3", 1.5e3},
		{"1e3k", 1e6},
		{"2m", 2e-3},
		{"1mil", 25.4e-6},
		{"3v", 3},
		{"+4", 4},
	}
	for _, c := range cases {
		got, err := ParseValue(c.in)
		if err != nil {
			t.Errorf("ParseValue(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-12*math.Abs(c.want) {
			t.Errorf("ParseValue(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// Note "1e" parses as 1 with the dangling 'e' treated as a unit word,
	// matching common SPICE leniency.
	for _, bad := range []string{"", "ohm", "k10", "--3"} {
		if _, err := ParseValue(bad); err == nil {
			t.Errorf("ParseValue(%q) should fail", bad)
		}
	}
}

func TestFormatValueRoundTrip(t *testing.T) {
	f := func(mant float64, exp int) bool {
		e := exp%28 - 14
		v := mant * math.Pow(10, float64(e))
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return true
		}
		s := FormatValue(v)
		got, err := ParseValue(s)
		if err != nil {
			return false
		}
		if v == 0 {
			return got == 0
		}
		return math.Abs(got-v) <= 1e-5*math.Abs(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

const sampleDeck = `inverter pair with rc line
* comment line
Vdd vdd 0 DC 5
VIN in 0 dc 0 PULSE(0 5 1n 0.1n 0.1n 4n 10n)
M1 out in vdd vdd PCH W=20u L=1u
M2 out in 0 0 NCH W=10u L=1u
R1 out n1 2.5
C1 n1 0 13.5f
R2 n1 n2 2.5
+ $ trailing comment
C2 n2 GND 13.5f
.model NCH NMOS vto=0.7 kp=50u gamma=0.4
+ phi=0.65 lambda=0.02
.model PCH PMOS vto=-0.7 kp=20u
.tran 0.1n 20n
.print tran v(out)
.end
`

func TestParseDeck(t *testing.T) {
	deck, err := ParseString(sampleDeck)
	if err != nil {
		t.Fatal(err)
	}
	if deck.Title != "inverter pair with rc line" {
		t.Errorf("title = %q", deck.Title)
	}
	if len(deck.Elements) != 8 {
		t.Fatalf("parsed %d elements, want 8", len(deck.Elements))
	}
	if len(deck.Models) != 2 {
		t.Fatalf("parsed %d models, want 2", len(deck.Models))
	}
	if len(deck.Controls) != 2 {
		t.Fatalf("parsed %d control cards, want 2: %v", len(deck.Controls), deck.Controls)
	}

	vin := deck.Elements[1].(*VSource)
	if vin.Ident != "vin" || vin.N1 != "in" || vin.N2 != "0" {
		t.Errorf("vin parsed wrong: %+v", vin)
	}
	p, ok := vin.Wave.(*Pulse)
	if !ok {
		t.Fatalf("vin waveform = %T, want *Pulse", vin.Wave)
	}
	if p.V2 != 5 || p.TD != 1e-9 || p.PW != 4e-9 || p.PER != 10e-9 {
		t.Errorf("pulse = %+v", p)
	}

	m1 := deck.Elements[2].(*MOSFET)
	if m1.ModelName != "pch" || math.Abs(m1.W-20e-6) > 1e-12 || math.Abs(m1.L-1e-6) > 1e-12 {
		t.Errorf("m1 = %+v", m1)
	}
	// "GND" must normalize to "0".
	c2 := deck.Elements[7].(*Capacitor)
	if c2.N2 != Ground {
		t.Errorf("c2.N2 = %q, want ground", c2.N2)
	}
	// Continuation joined the model card.
	nch := deck.Models["nch"]
	if nch.Param("phi", 0) != 0.65 || nch.Param("lambda", 0) != 0.02 {
		t.Errorf("nch params = %v", nch.Params)
	}
	if nch.Param("missing", 42) != 42 {
		t.Error("Param default failed")
	}
}

func TestParseWriteRoundTrip(t *testing.T) {
	deck, err := ParseString(sampleDeck)
	if err != nil {
		t.Fatal(err)
	}
	out := deck.String()
	deck2, err := ParseString(out)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, out)
	}
	if len(deck2.Elements) != len(deck.Elements) || len(deck2.Models) != len(deck.Models) {
		t.Fatalf("round trip changed element counts: %d/%d elements", len(deck2.Elements), len(deck.Elements))
	}
	for i := range deck.Elements {
		a, b := deck.Elements[i], deck2.Elements[i]
		if a.Name() != b.Name() {
			t.Errorf("element %d name %q vs %q", i, a.Name(), b.Name())
		}
		an, bn := a.Nodes(), b.Nodes()
		for j := range an {
			if an[j] != bn[j] {
				t.Errorf("element %s node %d: %q vs %q", a.Name(), j, an[j], bn[j])
			}
		}
	}
	// Values survive the round trip.
	r1a := deck.Elements[4].(*Resistor)
	r1b := deck2.Elements[4].(*Resistor)
	if math.Abs(r1a.Value-r1b.Value) > 1e-9*r1a.Value {
		t.Errorf("resistor value %v vs %v", r1a.Value, r1b.Value)
	}
}

func TestParseSourceVariants(t *testing.T) {
	deck, err := ParseString(`sources
v1 a 0 5
v2 b 0 dc 3 ac 1
v3 c 0 sin(0 1 1meg)
i1 d 0 dc 1m pwl(0 0 1n 5m 2n 0)
v4 e 0 ac 2 90
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	v1 := deck.Elements[0].(*VSource)
	if v1.DC != 5 || v1.Wave != nil {
		t.Errorf("v1 = %+v", v1)
	}
	v2 := deck.Elements[1].(*VSource)
	if v2.DC != 3 || v2.ACMag != 1 {
		t.Errorf("v2 = %+v", v2)
	}
	v3 := deck.Elements[2].(*VSource)
	if s, ok := v3.Wave.(*Sin); !ok || s.Freq != 1e6 {
		t.Errorf("v3 wave = %+v", v3.Wave)
	}
	i1 := deck.Elements[3].(*ISource)
	w, ok := i1.Wave.(*PWL)
	if !ok || len(w.T) != 3 {
		t.Fatalf("i1 wave = %+v", i1.Wave)
	}
	if i1.At(0.5e-9) != 2.5e-3 {
		t.Errorf("pwl interpolation = %v, want 2.5m", i1.At(0.5e-9))
	}
	v4 := deck.Elements[4].(*VSource)
	if v4.ACMag != 2 {
		t.Errorf("v4 ac = %v", v4.ACMag)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"t\nr1 a b\n.end\n",                                   // short resistor
		"t\nx1 a b c sub\n.end\n",                             // unsupported element
		"t\n+ continuation first\n",                           // continuation with no card
		"t\nr1 a b 1k\nq1 a b c m\n",                          // unsupported type q
		"t\n.model m1 diode is=1\n",                           // unsupported model type
		"t\nv1 a 0 pulse(1\n.end\n",                           // unbalanced paren
		"t\nm1 d g s b\n.end\n",                               // missing model name
		"t\nv1 a 0 pwl(0 1 2)\n.end\n",                        // odd pwl pairs
		"t\nc1 0(0\n.end\n",                                   // parenthesis as a node
		"t\n.subckt s p q\nr1 p q 1\n.ends\nx1 a ) s\n.end\n", // parenthesis in an instance's nodes
		"t\nc1 a b 1x=\n.end\n",                               // garbage value? (parses as 1) -- replaced below
	}
	bad = bad[:len(bad)-1]
	for _, s := range bad {
		if _, err := ParseString(s); err == nil {
			t.Errorf("deck %q parsed without error", s)
		}
	}
}

func TestWaveforms(t *testing.T) {
	p := &Pulse{V1: 0, V2: 5, TD: 1e-9, TR: 1e-10, TF: 1e-10, PW: 4e-9, PER: 10e-9}
	if p.At(0) != 0 {
		t.Error("pulse before delay")
	}
	if math.Abs(p.At(1.05e-9)-2.5) > 1e-9 {
		t.Errorf("pulse mid-rise = %v, want 2.5", p.At(1.05e-9))
	}
	if p.At(3e-9) != 5 {
		t.Error("pulse high")
	}
	if v := p.At(11.05e-9); math.Abs(v-2.5) > 1e-9 {
		t.Errorf("pulse periodic = %v, want 2.5", v)
	}
	s := &Sin{VO: 1, VA: 2, Freq: 1e6}
	if s.At(0) != 1 {
		t.Error("sin at t=0")
	}
	if v := s.At(0.25e-6); math.Abs(v-3) > 1e-9 {
		t.Errorf("sin peak = %v, want 3", v)
	}
	w := &PWL{T: []float64{0, 1, 2}, V: []float64{0, 10, 10}}
	if w.At(-1) != 0 || w.At(0.5) != 5 || w.At(3) != 10 {
		t.Error("pwl clamp/interp wrong")
	}
	var empty PWL
	if empty.At(1) != 0 {
		t.Error("empty pwl")
	}
}

func TestNodeNames(t *testing.T) {
	deck, err := ParseString(sampleDeck)
	if err != nil {
		t.Fatal(err)
	}
	names := deck.NodeNames()
	want := []string{"vdd", "in", "out", "n1", "n2"}
	if len(names) != len(want) {
		t.Fatalf("NodeNames = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("NodeNames = %v, want %v", names, want)
		}
	}
}

func TestElementsOfType(t *testing.T) {
	deck, err := ParseString(sampleDeck)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(deck.ElementsOfType('r')); n != 2 {
		t.Errorf("%d resistors, want 2", n)
	}
	if n := len(deck.ElementsOfType('m')); n != 2 {
		t.Errorf("%d mosfets, want 2", n)
	}
}

func TestWaveformCardsRoundTrip(t *testing.T) {
	waves := []Waveform{
		&Pulse{V1: 0, V2: 5, TD: 1e-9, TR: 1e-10, TF: 1e-10, PW: 4e-9, PER: 10e-9},
		&Sin{VO: 0, VA: 1, Freq: 2e6, TD: 1e-9, Theta: 1e3},
		&PWL{T: []float64{0, 1e-9, 5e-9}, V: []float64{0, 3, 0}},
	}
	for _, w := range waves {
		deck := "t\nv1 a 0 dc 0 " + w.Card() + "\n.end\n"
		parsed, err := ParseString(deck)
		if err != nil {
			t.Fatalf("%s: %v", w.Card(), err)
		}
		got := parsed.Elements[0].(*VSource).Wave
		for _, tt := range []float64{0, 0.3e-9, 1.2e-9, 4e-9, 7e-9} {
			if math.Abs(got.At(tt)-w.At(tt)) > 1e-6*(1+math.Abs(w.At(tt))) {
				t.Fatalf("%s at t=%g: %v vs %v", w.Card(), tt, got.At(tt), w.At(tt))
			}
		}
	}
}

func TestDeckStringContainsEnd(t *testing.T) {
	deck := &Deck{Title: "empty deck", Models: map[string]*Model{}}
	s := deck.String()
	if !strings.Contains(s, ".end") {
		t.Error("deck output missing .end")
	}
}

// TestParseNoPanics feeds semi-random garbage to the parser: it must
// return an error or a deck, never panic.
func TestParseNoPanics(t *testing.T) {
	pieces := []string{
		"r1 a b 1k", "c1 a 0", "v1", "m1 d g s b mod w= l=1u", ".model x nmos",
		".tran", "+", "* comment", "pulse(", ")", "v1 a 0 pwl(1", ".end",
		"r1 a b 1e99999", "i1 0 0 dc dc", "q", ".print", "0 0 0 0",
	}
	f := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		var b strings.Builder
		b.WriteString("fuzz title\n")
		for i := 0; i < rng.Intn(12); i++ {
			b.WriteString(pieces[rng.Intn(len(pieces))])
			b.WriteByte('\n')
		}
		_, _ = ParseString(b.String())
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInductorCardRoundTrip(t *testing.T) {
	deck, err := ParseString("t\nl1 a b 2.2n\nv1 a 0 dc 1\nr1 b 0 1\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	l := deck.Elements[0].(*Inductor)
	if l.N1 != "a" || l.N2 != "b" || math.Abs(l.Value-2.2e-9) > 1e-18 {
		t.Fatalf("inductor = %+v", l)
	}
	again, err := ParseString(deck.String())
	if err != nil {
		t.Fatal(err)
	}
	l2 := again.Elements[0].(*Inductor)
	if math.Abs(l2.Value-l.Value) > 1e-6*l.Value || l2.Name() != "l1" || len(l2.Nodes()) != 2 {
		t.Fatalf("round trip inductor = %+v", l2)
	}
	if _, err := ParseString("t\nl1 a b\n.end\n"); err == nil {
		t.Fatal("short inductor card accepted")
	}
}

func TestDiodeAndSourceAccessors(t *testing.T) {
	deck, err := ParseString(`accessors
d1 a k dmod
v1 a 0 dc 2 pulse(0 5 0 1p 1p 1n 2n)
i1 k 0 dc 1m
.model dmod d is=1e-14 n=1.2 cj0=2f
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	d := deck.Elements[0].(*Diode)
	if d.Name() != "d1" || len(d.Nodes()) != 2 || !strings.Contains(d.Card(), "dmod") {
		t.Fatalf("diode accessors: %q %v %q", d.Name(), d.Nodes(), d.Card())
	}
	v := deck.Elements[1].(*VSource)
	if v.At(0.5e-9) != 5 { // mid-pulse
		t.Fatalf("VSource.At = %v", v.At(0.5e-9))
	}
	i := deck.Elements[2].(*ISource)
	if i.At(123) != 1e-3 { // DC source: waveform-free At
		t.Fatalf("ISource.At = %v", i.At(123))
	}
	// Round trip keeps the diode.
	again, err := ParseString(deck.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := again.Elements[0].(*Diode); !ok {
		t.Fatal("diode lost in round trip")
	}
	if again.Models["dmod"].Param("n", 0) != 1.2 {
		t.Fatal("diode model params lost")
	}
}

func TestWriteHierarchicalDeck(t *testing.T) {
	// A deck constructed with explicit Subckts and an XInstance must
	// write hierarchically and re-parse to the same flat network.
	deck := &Deck{
		Title:  "handmade hierarchy",
		Models: map[string]*Model{},
		Subckts: map[string]*Subckt{
			"cell": {
				Ident: "cell",
				Ports: []string{"p", "q"},
				Elements: []Element{
					&Resistor{Ident: "r1", N1: "p", N2: "mid", Value: 100},
					&Capacitor{Ident: "c1", N1: "mid", N2: "q", Value: 1e-12},
				},
			},
			"unused": {Ident: "unused", Ports: []string{"z"}},
		},
		Elements: []Element{
			&VSource{Ident: "v1", N1: "a", N2: "0", DC: 1},
			&XInstance{Ident: "x1", NodeList: []string{"a", "0"}, SubcktRef: "cell"},
		},
	}
	text := deck.String()
	if !strings.Contains(text, ".subckt cell p q") || !strings.Contains(text, ".ends") {
		t.Fatalf("definition missing:\n%s", text)
	}
	if strings.Contains(text, "unused") {
		t.Fatalf("unreferenced subckt emitted:\n%s", text)
	}
	parsed, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	// Flattened: v1 + r1_x1 + c1_x1.
	if len(parsed.Elements) != 3 {
		t.Fatalf("flattened to %d elements:\n%s", len(parsed.Elements), text)
	}
}
