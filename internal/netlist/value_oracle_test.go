package netlist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// The writer's oracle is the string-based FormatValue and the
// Fprintln(Card()) deck writer that AppendValue and the line-buffer
// writer replaced, kept verbatim below: every rendered token and every
// written deck must match them byte for byte, so a reduced deck's
// golden digest cannot move.

// formatValueRef is FormatValue as it was before AppendValue: it
// re-parses every candidate token with ParseValue.
func formatValueRef(v float64) string {
	if v == 0 {
		return "0"
	}
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Sprintf("%g", v)
	}
	abs := math.Abs(v)
	type unit struct {
		mult float64
		suf  string
	}
	units := []unit{
		{1e12, "t"}, {1e9, "g"}, {1e6, "meg"}, {1e3, "k"},
		{1, ""}, {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
	}
	for _, u := range units {
		if abs >= u.mult && abs < u.mult*1000 {
			if s := trimFloatRef(v/u.mult) + u.suf; reparsesToRef(s, v) {
				return s
			}
			if s := strconv.FormatFloat(v/u.mult, 'g', -1, 64) + u.suf; reparsesToRef(s, v) {
				return s
			}
			return strconv.FormatFloat(v, 'g', -1, 64)
		}
	}
	if s := trimFloatRef(v); reparsesToRef(s, v) {
		return s
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// reparsesTo reports whether the token parses back to exactly v.
func reparsesToRef(s string, v float64) bool {
	got, err := ParseValue(s)
	return err == nil && got == v
}

func trimFloatRef(v float64) string {
	// Ten significant digits: enough for every humanly-entered value to
	// keep its natural spelling ("2.5", "13.5"); FormatValue falls back
	// to the shortest exact form when ten digits lose bits.
	s := strconv.FormatFloat(v, 'g', 10, 64)
	// Rounding to ten digits can carry values at the very edge of the
	// float64 range past it (MaxFloat64 becomes 1.797693135e+308, which
	// overflows on re-parse); fall back to the shortest exact form.
	if f, err := strconv.ParseFloat(s, 64); err != nil || math.IsInf(f, 0) {
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	return s
}

// cardRef renders e as the Sprintf-based cards did; resistors and
// capacitors are the cards whose rendering the line-buffer writer owns.
func cardRef(e Element) string {
	switch x := e.(type) {
	case *Resistor:
		return fmt.Sprintf("%s %s %s %s", x.Ident, x.N1, x.N2, formatValueRef(x.Value))
	case *Capacitor:
		return fmt.Sprintf("%s %s %s %s", x.Ident, x.N1, x.N2, formatValueRef(x.Value))
	}
	return e.Card()
}

// writeRef is Deck.Write as it was: one Fprintln(Card()) per element.
func writeRef(d *Deck, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, d.Title)
	keys := make([]string, 0, len(d.Models))
	for k := range d.Models {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, k := range keys {
		fmt.Fprintln(bw, d.Models[k].Card())
	}
	// Emit only definitions still referenced (transitively) by instances.
	refed := map[string]bool{}
	var mark func(elems []Element)
	mark = func(elems []Element) {
		for _, e := range elems {
			x, ok := e.(*XInstance)
			if !ok {
				continue
			}
			if refed[x.SubcktRef] {
				continue
			}
			refed[x.SubcktRef] = true
			if sub, ok := d.Subckts[x.SubcktRef]; ok {
				mark(sub.Elements)
			}
		}
	}
	mark(d.Elements)
	subNames := make([]string, 0, len(refed))
	for k := range refed {
		if _, ok := d.Subckts[k]; ok {
			subNames = append(subNames, k)
		}
	}
	sortStrings(subNames)
	for _, k := range subNames {
		sub := d.Subckts[k]
		fmt.Fprintf(bw, ".subckt %s %s\n", sub.Ident, strings.Join(sub.Ports, " "))
		for _, e := range sub.Elements {
			fmt.Fprintln(bw, cardRef(e))
		}
		fmt.Fprintln(bw, ".ends")
	}
	for _, e := range d.Elements {
		fmt.Fprintln(bw, cardRef(e))
	}
	for _, c := range d.Controls {
		fmt.Fprintln(bw, c)
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// oracleSweep calls visit on at least 1M deterministic values: random
// bit patterns (NaN, infinities and subnormals included), log-uniform
// magnitudes from 1e-20 to 1e20 of both signs, and a few ulps either side
// of every unit boundary and of the float64 range's ends.
func oracleSweep(visit func(v float64)) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 1<<19; i++ {
		visit(math.Float64frombits(rng.Uint64()))
	}
	for i := 0; i < 1<<19; i++ {
		v := math.Pow(10, -20+40*rng.Float64())
		if i%2 == 1 {
			v = -v
		}
		visit(v)
	}
	edges := []float64{
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022,
		1e-15, 1e15, 999.99999999999, 1000, 1,
	}
	for _, u := range engUnits {
		edges = append(edges, u.mult, u.mult*1000, 999.99999999999*u.mult)
	}
	for _, e := range edges {
		for _, s := range []float64{1, -1} {
			v := s * e
			up, down := v, v
			for k := 0; k < 64; k++ {
				visit(up)
				visit(down)
				up = math.Nextafter(up, math.Inf(1))
				down = math.Nextafter(down, math.Inf(-1))
			}
		}
	}
}

func TestFormatValueOracleSweep(t *testing.T) {
	prefix := []byte("r1 a b ")
	buf := append([]byte(nil), prefix...)
	count, bad := 0, 0
	oracleSweep(func(v float64) {
		count++
		want := formatValueRef(v)
		if len(want) > maxValueLen {
			if bad++; bad <= 10 {
				t.Errorf("FormatValue(%v) = %q is longer than maxValueLen %d", v, want, maxValueLen)
			}
		}
		if got := FormatValue(v); got != want {
			if bad++; bad <= 10 {
				t.Errorf("FormatValue(%v) [%#x] = %q, reference %q", v, math.Float64bits(v), got, want)
			}
		}
		buf = AppendValue(buf[:len(prefix)], v)
		if !bytes.HasPrefix(buf, prefix) || string(buf[len(prefix):]) != want {
			if bad++; bad <= 10 {
				t.Errorf("AppendValue(%q, %v) = %q, reference %q", prefix, v, buf, want)
			}
		}
	})
	if count < 1_000_000 {
		t.Fatalf("sweep covered %d values, want at least 1M", count)
	}
}

func TestAppendValueDoesNotAllocate(t *testing.T) {
	// One value per branch: ten-digit engineering, shortest mantissa
	// with suffix, plain shortest, and both out-of-range forms.
	vals := []float64{13.5e-15, 1.0000000000000002e-9, 0.1 + 0.2, 2.5e-18, -1.2345678912345e19}
	dst := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			dst = AppendValue(dst[:0], v)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendValue allocated %v times per run", allocs)
	}
}

// oracleCardDeck holds every element type, models, a referenced and an
// unreferenced subcircuit whose bodies mix resistors and capacitors with
// the other elements, and controls.
func oracleCardDeck() *Deck {
	return &Deck{
		Title: "writer oracle",
		Models: map[string]*Model{
			"nch": {Ident: "nch", Type: "nmos", Params: map[string]float64{"vto": 0.7, "kp": 50e-6}},
			"d1":  {Ident: "d1", Type: "d", Params: map[string]float64{"is": 1e-14}},
		},
		Subckts: map[string]*Subckt{
			"cell": {
				Ident: "cell",
				Ports: []string{"p", "q"},
				Elements: []Element{
					&Resistor{Ident: "r1", N1: "p", N2: "mid", Value: 1 / 3.0},
					&Capacitor{Ident: "c1", N1: "mid", N2: "q", Value: -2.5e-18},
					&Inductor{Ident: "l1", N1: "mid", N2: "0", Value: 1e-9},
					&XInstance{Ident: "x1", NodeList: []string{"p", "q"}, SubcktRef: "leaf"},
				},
			},
			"leaf":   {Ident: "leaf", Ports: []string{"a", "b"}, Elements: []Element{&Resistor{Ident: "r9", N1: "a", N2: "b", Value: 7.5e15}}},
			"unused": {Ident: "unused", Ports: []string{"z"}, Elements: []Element{&Capacitor{Ident: "c9", N1: "z", N2: "0", Value: 1}}},
		},
		Elements: []Element{
			&Resistor{Ident: "rpact1", N1: "n1", N2: "pact_i1", Value: 0.1 + 0.2},
			&Resistor{Ident: "rpact2", N1: "n1", N2: "0", Value: math.MaxFloat64},
			&Capacitor{Ident: "cpact1", N1: "n1", N2: "pact_i1", Value: 13.5e-15},
			&Capacitor{Ident: "cpact2", N1: "pact_i1", N2: "0", Value: math.SmallestNonzeroFloat64},
			&Inductor{Ident: "l2", N1: "n1", N2: "n2", Value: 2.2e-6},
			&Diode{Ident: "d1", N1: "n2", N2: "0", ModelName: "d1"},
			&VSource{Ident: "v1", N1: "n1", N2: "0", DC: 5, ACMag: 1, Wave: &Pulse{V1: 0, V2: 5, TD: 1e-9, TR: 1e-10, TF: 1e-10, PW: 4e-9, PER: 1e-8}},
			&VSource{Ident: "v2", N1: "n3", N2: "0", Wave: &Sin{VO: 2.5, VA: 2.5, Freq: 50e6, TD: 1e-9, Theta: 1e6}},
			&ISource{Ident: "i1", N1: "n2", N2: "0", DC: 1e-3, ACMag: 1, Wave: &PWL{T: []float64{0, 1e-9, 2e-9}, V: []float64{0, 1, 0}}},
			&MOSFET{Ident: "m1", D: "n2", G: "n1", S: "0", B: "0", ModelName: "nch", W: 10e-6, L: 1e-6},
			&XInstance{Ident: "x2", NodeList: []string{"n1", "n3"}, SubcktRef: "cell"},
		},
		Controls: []string{".tran 0.1n 20n", ".print tran v(n1)"},
	}
}

func TestWriteOracleCards(t *testing.T) {
	decks := map[string]*Deck{"every-element": oracleCardDeck()}
	parsed, err := ParseString(sampleDeck)
	if err != nil {
		t.Fatal(err)
	}
	decks["sample"] = parsed
	rng := rand.New(rand.NewSource(2402))
	realized := &Deck{Title: "realized"}
	for k := 1; k <= 2000; k++ {
		v := math.Float64frombits(rng.Uint64() &^ (1 << 62)) // finite, magnitude below 2
		v *= math.Pow(10, -18+36*rng.Float64())
		n1, n2 := fmt.Sprintf("p%d", k%17+1), fmt.Sprintf("pact_i%d", k%5+1)
		if k%3 == 0 {
			realized.Elements = append(realized.Elements, &Capacitor{Ident: "cpact" + strconv.Itoa(k), N1: n1, N2: n2, Value: v})
		} else {
			realized.Elements = append(realized.Elements, &Resistor{Ident: "rpact" + strconv.Itoa(k), N1: n1, N2: Ground, Value: v})
		}
	}
	decks["realized"] = realized
	for name, d := range decks {
		var got, want strings.Builder
		if err := d.Write(&got); err != nil {
			t.Fatalf("%s: Write: %v", name, err)
		}
		if err := writeRef(d, &want); err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s: Write differs from the Fprintln(Card()) rendering:\n got: %q\nwant: %q", name, got.String(), want.String())
		}
		if s := d.String(); s != want.String() {
			t.Fatalf("%s: String differs from the Fprintln(Card()) rendering:\n got: %q\nwant: %q", name, s, want.String())
		}
		for _, e := range d.Elements {
			if got, want := e.Card(), cardRef(e); got != want {
				t.Fatalf("%s: %s.Card() = %q, reference %q", name, e.Name(), got, want)
			}
		}
	}
}

// TestDeckStringAllocBound bounds the bytes one String call allocates on
// the 66k-card realized deck at 1.5× its output: the builder is sized
// once from the deck instead of regrowing across it.
func TestDeckStringAllocBound(t *testing.T) {
	d := realizedDeck(benchCards)
	want := d.String()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := d.String()
	runtime.ReadMemStats(&after)
	if got != want {
		t.Fatal("String rendered the deck differently on a second call")
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if limit := 1.5 * float64(len(got)); float64(alloc) > limit {
		t.Fatalf("String allocated %d bytes for %d bytes of output, limit %.0f", alloc, len(got), limit)
	}
	t.Logf("String allocated %d bytes for %d bytes of output (%.3f×)", alloc, len(got), float64(alloc)/float64(len(got)))
}
