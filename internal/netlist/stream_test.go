package netlist

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// failAfter yields its contents and then a read error, standing in for a
// source that breaks after the interesting part of the stream.
type failAfter struct {
	r    io.Reader
	err  error
	done bool
}

func (f *failAfter) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n > 0 {
		return n, nil
	}
	if err == io.EOF {
		f.done = true
		return 0, f.err
	}
	return n, err
}

// TestParseLongLines pins that the scanner's buffer grows past its
// small starting size: a title and a comment line of 2 MiB each parse.
func TestParseLongLines(t *testing.T) {
	long := strings.Repeat("x", 2<<20)
	deck, err := ParseString("t" + long + "\n*" + long + "\nr1 a b 1k\n.end\n")
	if err != nil {
		t.Fatalf("long lines: %v", err)
	}
	if len(deck.Title) != 1+len(long) || len(deck.Elements) != 1 {
		t.Fatalf("title of %d bytes and %d elements, want %d and 1", len(deck.Title), len(deck.Elements), 1+len(long))
	}
}

// TestParseStopsReadingAtEnd pins the streaming contract: once the .end
// card is seen, Parse asks the reader for nothing more. A source that
// fails right after .end must not turn into a parse error.
func TestParseStopsReadingAtEnd(t *testing.T) {
	boom := errors.New("reader exploded past .end")
	src := &failAfter{r: strings.NewReader("t\nr1 a b 1k\n.end\n"), err: boom}
	deck, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse should not read past .end: %v", err)
	}
	if len(deck.Elements) != 1 {
		t.Fatalf("got %d elements, want 1", len(deck.Elements))
	}
	// Without .end the same failure must surface: the parser only stops
	// early because .end told it to.
	src = &failAfter{r: strings.NewReader("t\nr1 a b 1k\n"), err: boom}
	if _, err := Parse(src); !errors.Is(err, boom) {
		t.Fatalf("Parse without .end swallowed the read error: %v", err)
	}
}

// TestParseIgnoresCardsAfterEnd: content between .end and EOF is dead —
// it contributes no elements and cannot fail the parse.
func TestParseIgnoresCardsAfterEnd(t *testing.T) {
	deck, err := ParseString("t\nr1 a b 1k\n.end\nzz not a card\nr9 q w 2\n")
	if err != nil {
		t.Fatalf("cards after .end must be ignored: %v", err)
	}
	if len(deck.Elements) != 1 || deck.Elements[0].Name() != "r1" {
		t.Fatalf("deck picked up elements after .end: %v", deck.Elements)
	}
}

// TestParseContinuationCaseInsensitive: continuation lines are folded to
// lower case like every other card line, so a waveform split across a
// '+' line parses regardless of its case.
func TestParseContinuationCaseInsensitive(t *testing.T) {
	deck, err := ParseString("t\nv1 a 0 dc 0\n+ PULSE(0 5 1N 0.1N 0.1N 4N 10N)\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	v, ok := deck.Elements[0].(*VSource)
	if !ok || v.Wave == nil {
		t.Fatalf("continuation waveform lost: %#v", deck.Elements[0])
	}
	if _, ok := v.Wave.(*Pulse); !ok {
		t.Fatalf("wave = %T, want *Pulse", v.Wave)
	}
}

// TestParseStreamsSubcktAcrossCards: the per-card dispatch must keep the
// .subckt nesting state across the stream, including a definition whose
// body and delimiters interleave with comments and continuations.
func TestParseStreamsSubcktAcrossCards(t *testing.T) {
	deck, err := ParseString(`t
.subckt cell a b
* body comment
r1 a mid 1k
c1 mid
+ b 1p
.ends
x1 n1 n2 cell
i1 n1 0 dc 0
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := deck.Subckts["cell"]; !ok {
		t.Fatalf("subckt lost in streaming parse: %v", deck.Subckts)
	}
	// flatten expanded x1: one resistor + one capacitor + the probe.
	if len(deck.Elements) != 3 {
		t.Fatalf("got %d flattened elements, want 3", len(deck.Elements))
	}
}
