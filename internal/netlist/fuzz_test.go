package netlist

import (
	"math"
	"slices"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// FuzzParse: arbitrary text must parse or error, never panic, and any
// successfully parsed deck must survive a write/re-parse round trip.
func FuzzParse(f *testing.F) {
	f.Add("title\nr1 a b 1k\n.end\n")
	f.Add(sampleDeck)
	f.Add("t\n.subckt s a\nr1 a 0 1\n.ends\nx1 n s\nv1 n 0 dc 1\n.end\n")
	f.Add("t\nv1 a 0 dc 0 pulse(0 5 1n 0.1n 0.1n 4n 10n)\n.end\n")
	f.Add("t\n+ broken\n")
	f.Add("t\nl1 a 0 1u\nm1 a b c d mod w=1u l=1u\n.model mod nmos\n.end\n")
	f.Fuzz(func(t *testing.T, input string) {
		deck, err := ParseString(input)
		if err != nil {
			return
		}
		out := deck.String()
		deck2, err := ParseString(out)
		if err != nil {
			t.Fatalf("round trip failed: %v\nfirst output:\n%s", err, out)
		}
		if len(deck2.Elements) != len(deck.Elements) {
			t.Fatalf("round trip changed element count %d -> %d\n%s", len(deck.Elements), len(deck2.Elements), out)
		}
	})
}

// FuzzParseValue: numeric token parsing must never panic and must accept
// its own formatted output.
func FuzzParseValue(f *testing.F) {
	for _, s := range []string{"1k", "-2.5n", "1e-3", "10kohm", "meg", "..", "1e", "5meg"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		v, err := ParseValue(tok)
		if err != nil {
			return
		}
		s := FormatValue(v)
		v2, err := ParseValue(s)
		if err != nil {
			t.Fatalf("FormatValue(%v) = %q does not re-parse: %v", v, s, err)
		}
		if v2 != v {
			t.Fatalf("round trip %q -> %v -> %q -> %v is not exact", tok, v, s, v2)
		}
	})
}

// builderTokenize is the tokenizer tokenize replaced, kept as its
// reference: it rewrites the card through a strings.Builder — spaces
// around parentheses, commas to spaces — and splits with strings.Fields.
// On valid UTF-8 both give the same fields; where the card holds invalid
// bytes, the range loop here rewrites each as U+FFFD while tokenize
// keeps the bytes.
func builderTokenize(card string) []string {
	var b strings.Builder
	for _, ch := range card {
		switch ch {
		case '(', ')':
			b.WriteByte(' ')
			b.WriteRune(ch)
			b.WriteByte(' ')
		case ',':
			b.WriteByte(' ')
		default:
			b.WriteRune(ch)
		}
	}
	return strings.Fields(b.String())
}

// FuzzTokenize checks, on every card, that no field holds a separator
// (a Unicode space or a comma) and that a parenthesis only ever stands
// alone as a one-byte field; on every valid-UTF-8 card it also checks
// the one-scan tokenizer against builderTokenize: same fields, in order.
func FuzzTokenize(f *testing.F) {
	f.Add("v1 a 0 pulse(0 5, 1n)")
	f.Add("((((")
	f.Add("m1 d g s b nch w=1u,l=2u")
	f.Add("r1\ta\t\tb,,1k\r")
	f.Add("v1 a\u00a0b\u0085c dc(1)")
	f.Add("i1 x\u2003y sin(0,1 ,1meg)\v\f")
	f.Add(",(),)(")
	f.Add("r1 a\xff(b\xc2 \xa0c,\x85d")
	f.Fuzz(func(t *testing.T, card string) {
		got := tokenize(nil, card)
		for _, tk := range got {
			if tk == "(" || tk == ")" {
				continue
			}
			if i := strings.IndexFunc(tk, func(r rune) bool {
				return unicode.IsSpace(r) || r == ',' || r == '(' || r == ')'
			}); i >= 0 {
				t.Fatalf("tokenize(%q): field %q holds separator %q", card, tk, tk[i:])
			}
		}
		if !utf8.ValidString(card) {
			return // tokenize keeps invalid bytes verbatim; the reference rewrites them
		}
		if want := builderTokenize(card); !slices.Equal(got, want) {
			t.Fatalf("tokenize(%q) = %q, reference %q", card, got, want)
		}
	})
}

// TestTokenizeKeepsInvalidUTF8 pins the one documented difference from
// the reference tokenizer: an invalid byte stays in its field as is (the
// reference wrote U+FFFD), and it never splits a field.
func TestTokenizeKeepsInvalidUTF8(t *testing.T) {
	card := "r1 a\xffb 0 1k"
	got := tokenize(nil, card)
	want := []string{"r1", "a\xffb", "0", "1k"}
	if !slices.Equal(got, want) {
		t.Fatalf("tokenize(%q) = %q, want %q", card, got, want)
	}
	if ref := builderTokenize(card); ref[1] != "a\uFFFDb" {
		t.Fatalf("reference field %q, want the U+FFFD rewrite", ref[1])
	}
}

// FuzzFormatValue: every finite float must format to a token that
// ParseValue accepts and that recovers the value bit-exactly.
func FuzzFormatValue(f *testing.F) {
	for _, v := range []float64{0, 630, 30e-15, 1.35e-12, -2.5e-9, 5e6, 1e-3, -1, 2.2250738585072014e-308, 1.7976931348623157e308} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip("only finite values have a SPICE representation")
		}
		s := FormatValue(v)
		if want := formatValueRef(v); s != want {
			t.Fatalf("FormatValue(%v) = %q, reference %q", v, s, want)
		}
		if strings.ContainsAny(s, " \t\n(),") {
			t.Fatalf("FormatValue(%v) = %q contains separator characters", v, s)
		}
		v2, err := ParseValue(s)
		if err != nil {
			t.Fatalf("FormatValue(%v) = %q does not parse: %v", v, s, err)
		}
		if v == 0 {
			if v2 != 0 {
				t.Fatalf("FormatValue(0) = %q parsed back as %v", s, v2)
			}
			return
		}
		if v2 != v {
			t.Fatalf("round trip %v -> %q -> %v is not exact", v, s, v2)
		}
	})
}

// FuzzWaveform drives the source-card waveform pipeline: arbitrary
// waveform specifications must parse or error (never panic), evaluate
// without panicking, and survive a Card() round trip with identical
// sample values.
func FuzzWaveform(f *testing.F) {
	f.Add("pulse(0 5 1n 0.1n 0.1n 4n 10n)")
	f.Add("pulse(0 5)")
	f.Add("sin(0 1 1meg)")
	f.Add("sin(2.5 2.5 50meg 1n 1e6)")
	f.Add("pwl(0 0 1n 5 2n 5 3n 0)")
	f.Add("pwl(0 0 0 5)")
	f.Add("pulse(0 5 -1n -2 3 4")
	f.Add("sin(1 2)")
	f.Add("pwl(1 2 3)")
	// Regression: ".1n" parses one ulp above float64 1e-10, and the old
	// ten-digit FormatValue rendered it "100p" — moving a zero-rise edge
	// across the 1e-10 sample point. FormatValue is exact now.
	f.Add("pulse 0 1 .1n 0 10")
	f.Fuzz(func(t *testing.T, spec string) {
		if strings.ContainsAny(spec, "\n\r") {
			t.Skip("a spec cannot span cards")
		}
		deck, err := ParseString("fuzz waveform\nv1 a 0 dc 0 " + spec + "\n.end\n")
		if err != nil {
			return
		}
		var wave Waveform
		for _, e := range deck.Elements {
			if v, ok := e.(*VSource); ok {
				wave = v.Wave
			}
		}
		if wave == nil {
			return
		}
		samples := []float64{0, 1e-10, 1e-9, 2.5e-9, 1e-6, 1}
		for _, ts := range samples {
			wave.At(ts) // must not panic, whatever the parameters
		}
		card := wave.Card()
		deck2, err := ParseString("fuzz waveform\nv1 a 0 dc 0 " + card + "\n.end\n")
		if err != nil {
			t.Fatalf("Card() = %q does not re-parse: %v", card, err)
		}
		var wave2 Waveform
		for _, e := range deck2.Elements {
			if v, ok := e.(*VSource); ok {
				wave2 = v.Wave
			}
		}
		if wave2 == nil {
			t.Fatalf("Card() = %q lost the waveform on re-parse", card)
		}
		for _, ts := range samples {
			a, b := wave.At(ts), wave2.At(ts)
			if math.IsNaN(a) && math.IsNaN(b) {
				continue
			}
			diff := a - b
			scale := math.Abs(a) + math.Abs(b) + 1
			if diff/scale < -1e-6 || diff/scale > 1e-6 {
				t.Fatalf("At(%g) changed across Card round trip: %v vs %v (card %q)", ts, a, b, card)
			}
		}
	})
}
