package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
)

// Parse reads a SPICE deck. Following SPICE convention the first line is
// the title; '*' lines are comments, '+' lines continue the previous
// card, and everything is case-insensitive. Parsing stops at .end (or
// EOF).
//
// Parsing streams: each card is dispatched into the deck as soon as its
// continuation lines end, so only the single pending card is buffered as
// text — a million-element deck costs the elements it declares, never a
// second copy of the file. The `.end` card terminates the scan at the
// line it appears on; whatever follows it in the stream is not read.
func Parse(r io.Reader) (*Deck, error) {
	t0 := time.Now()
	sc := bufio.NewScanner(r)
	// Cards are short, so the scanner starts from its own 4 KiB buffer
	// and grows it only for a longer line, up to 16 MiB. A large starting
	// buffer would be a fresh allocation, page-faulted in, on every parse
	// of a small deck — and rcfitd parses every request its cache cannot
	// answer from the raw bytes.
	sc.Buffer(nil, 1<<24)
	deck := &Deck{Models: map[string]*Model{}, Subckts: map[string]*Subckt{}}
	st := &parseState{deck: deck}
	lineNo := 0
	first := true
	pending := "" // the card being assembled, continuations joined
	done := false
	for !done && sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '$'); i >= 0 {
			line = line[:i]
		}
		if first {
			deck.Title = strings.TrimSpace(line)
			first = false
			continue
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || trimmed[0] == '*' {
			continue
		}
		if trimmed[0] == '+' {
			if pending == "" {
				return nil, fmt.Errorf("netlist: line %d: continuation with no previous card", lineNo)
			}
			pending += " " + strings.ToLower(strings.TrimSpace(trimmed[1:]))
			continue
		}
		// A new card begins: the pending one can no longer grow, so it
		// dispatches now.
		if pending != "" {
			if err := st.dispatch(pending); err != nil {
				return nil, err
			}
		}
		pending = strings.ToLower(trimmed)
		if pending == ".end" {
			done = true
		}
	}
	if !done {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("netlist: read: %w", err)
		}
		if pending != "" {
			if err := st.dispatch(pending); err != nil {
				return nil, err
			}
		}
	}
	if st.sub != nil {
		return nil, fmt.Errorf("netlist: .subckt %s not closed by .ends", st.sub.Ident)
	}
	if err := deck.flatten(); err != nil {
		return nil, err
	}
	deck.ParseNs = time.Since(t0).Nanoseconds()
	return deck, nil
}

// parseState carries the in-progress deck and the .subckt nesting state
// between streamed card dispatches.
type parseState struct {
	deck *Deck
	sub  *Subckt  // non-nil while inside a .subckt body
	toks []string // token scratch, reused card to card
}

// dispatch routes one complete card: subcircuit delimiters update the
// nesting state, everything else lands in the deck or the open subckt.
func (st *parseState) dispatch(card string) error {
	if card[0] == '.' {
		fields := strings.Fields(card)
		switch fields[0] {
		case ".subckt":
			if st.sub != nil {
				return fmt.Errorf("netlist: nested .subckt definition in %q", card)
			}
			if len(fields) < 2 {
				return fmt.Errorf("netlist: %q needs a name", card)
			}
			st.sub = &Subckt{Ident: fields[1]}
			for _, p := range fields[2:] {
				st.sub.Ports = append(st.sub.Ports, norm(p))
			}
			return nil
		case ".ends":
			if st.sub == nil {
				return fmt.Errorf("netlist: .ends without .subckt")
			}
			if _, dup := st.deck.Subckts[st.sub.Ident]; dup {
				return fmt.Errorf("netlist: duplicate subcircuit %q", st.sub.Ident)
			}
			st.deck.Subckts[st.sub.Ident] = st.sub
			st.sub = nil
			return nil
		}
	}
	target := &st.deck.Elements
	if st.sub != nil {
		target = &st.sub.Elements
	}
	st.toks = tokenize(st.toks[:0], card)
	return parseCard(st.deck, target, st.toks, card)
}

// ParseString parses a deck held in a string.
func ParseString(s string) (*Deck, error) { return Parse(strings.NewReader(s)) }

// parseCard appends the element one card declares to target, or
// records a dot card in the deck; toks is the card's tokenization.
func parseCard(deck *Deck, target *[]Element, toks []string, card string) error {
	if len(toks) == 0 {
		return nil
	}
	name := toks[0]
	// A parenthesis is a token of its own, never a node name: accepted as
	// one, it would not survive a write and re-parse once flattening
	// prefixed it ("x1.(").
	nodes := 0
	switch name[0] {
	case 'r', 'c', 'd', 'l', 'v', 'i':
		nodes = 2
	case 'm':
		nodes = 4
	case 'x':
		nodes = len(toks) - 2
	}
	for _, t := range toks[1:max(1, min(1+nodes, len(toks)))] {
		if t == "(" || t == ")" {
			return fmt.Errorf("netlist: card %q: %q is not a node name", card, t)
		}
	}
	switch name[0] {
	case '.':
		return parseDot(deck, name, toks[1:], card)
	case 'r':
		if len(toks) < 4 {
			return fmt.Errorf("netlist: resistor card %q needs 4 fields", card)
		}
		v, err := ParseValue(toks[3])
		if err != nil {
			return fmt.Errorf("netlist: resistor %s: %w", name, err)
		}
		*target = append(*target, &Resistor{Ident: name, N1: norm(toks[1]), N2: norm(toks[2]), Value: v})
	case 'c':
		if len(toks) < 4 {
			return fmt.Errorf("netlist: capacitor card %q needs 4 fields", card)
		}
		v, err := ParseValue(toks[3])
		if err != nil {
			return fmt.Errorf("netlist: capacitor %s: %w", name, err)
		}
		*target = append(*target, &Capacitor{Ident: name, N1: norm(toks[1]), N2: norm(toks[2]), Value: v})
	case 'd':
		if len(toks) < 4 {
			return fmt.Errorf("netlist: diode card %q needs anode cathode model", card)
		}
		*target = append(*target, &Diode{Ident: name, N1: norm(toks[1]), N2: norm(toks[2]), ModelName: toks[3]})
	case 'l':
		if len(toks) < 4 {
			return fmt.Errorf("netlist: inductor card %q needs 4 fields", card)
		}
		v, err := ParseValue(toks[3])
		if err != nil {
			return fmt.Errorf("netlist: inductor %s: %w", name, err)
		}
		*target = append(*target, &Inductor{Ident: name, N1: norm(toks[1]), N2: norm(toks[2]), Value: v})
	case 'v':
		if len(toks) < 3 {
			return fmt.Errorf("netlist: source card %q needs two nodes", card)
		}
		src := &VSource{Ident: name, N1: norm(toks[1]), N2: norm(toks[2])}
		wave, dc, ac, err := parseSource(toks[3:])
		if err != nil {
			return fmt.Errorf("netlist: source %s: %w", name, err)
		}
		src.DC, src.ACMag, src.Wave = dc, ac, wave
		*target = append(*target, src)
	case 'i':
		if len(toks) < 3 {
			return fmt.Errorf("netlist: source card %q needs two nodes", card)
		}
		src := &ISource{Ident: name, N1: norm(toks[1]), N2: norm(toks[2])}
		wave, dc, ac, err := parseSource(toks[3:])
		if err != nil {
			return fmt.Errorf("netlist: source %s: %w", name, err)
		}
		src.DC, src.ACMag, src.Wave = dc, ac, wave
		*target = append(*target, src)
	case 'x':
		if len(toks) < 3 {
			return fmt.Errorf("netlist: instance card %q needs nodes and a subcircuit name", card)
		}
		x := &XInstance{Ident: name, SubcktRef: toks[len(toks)-1]}
		for _, n := range toks[1 : len(toks)-1] {
			x.NodeList = append(x.NodeList, norm(n))
		}
		*target = append(*target, x)
	case 'm':
		if len(toks) < 6 {
			return fmt.Errorf("netlist: mosfet card %q needs d g s b model", card)
		}
		mos := &MOSFET{
			Ident: name,
			D:     norm(toks[1]), G: norm(toks[2]), S: norm(toks[3]), B: norm(toks[4]),
			ModelName: toks[5],
			W:         10e-6, L: 1e-6,
		}
		for _, t := range toks[6:] {
			k, v, ok := strings.Cut(t, "=")
			if !ok {
				return fmt.Errorf("netlist: mosfet %s: expected key=value, got %q", name, t)
			}
			val, err := ParseValue(v)
			if err != nil {
				return fmt.Errorf("netlist: mosfet %s %s: %w", name, k, err)
			}
			switch k {
			case "w":
				mos.W = val
			case "l":
				mos.L = val
			default:
				// Ignore unsupported instance parameters (ad, as, ...).
			}
		}
		*target = append(*target, mos)
	default:
		return fmt.Errorf("netlist: unsupported element type %q in card %q", name[:1], card)
	}
	return nil
}

func parseDot(deck *Deck, name string, args []string, card string) error {
	switch name {
	case ".model":
		if len(args) < 2 {
			return fmt.Errorf("netlist: %q needs name and type", card)
		}
		m := &Model{Ident: args[0], Type: args[1], Params: map[string]float64{}}
		if m.Type != "nmos" && m.Type != "pmos" && m.Type != "d" {
			return fmt.Errorf("netlist: unsupported model type %q (nmos/pmos/d only)", m.Type)
		}
		for _, t := range args[2:] {
			k, v, ok := strings.Cut(t, "=")
			if !ok {
				continue // tokens like "level" handled as key=value only
			}
			val, err := ParseValue(v)
			if err != nil {
				return fmt.Errorf("netlist: model %s param %s: %w", m.Ident, k, err)
			}
			m.Params[k] = val
		}
		deck.Models[m.Ident] = m
	case ".end":
		// handled by caller
	default:
		deck.Controls = append(deck.Controls, card)
	}
	return nil
}

// parseSource parses the value fields of a V/I source card: an optional
// bare value or "dc <v>", an optional "ac <mag> [phase]", and an optional
// pulse/sin/pwl waveform.
func parseSource(toks []string) (Waveform, float64, float64, error) {
	var wave Waveform
	dc, ac := 0.0, 0.0
	i := 0
	for i < len(toks) {
		t := toks[i]
		switch {
		case t == "dc":
			if i+1 >= len(toks) {
				return nil, 0, 0, fmt.Errorf("dc needs a value")
			}
			v, err := ParseValue(toks[i+1])
			if err != nil {
				return nil, 0, 0, err
			}
			dc = v
			i += 2
		case t == "ac":
			if i+1 >= len(toks) {
				return nil, 0, 0, fmt.Errorf("ac needs a magnitude")
			}
			v, err := ParseValue(toks[i+1])
			if err != nil {
				return nil, 0, 0, err
			}
			ac = v
			i += 2
			// Optional phase argument.
			if i < len(toks) {
				if _, err := ParseValue(toks[i]); err == nil && !isWaveKeyword(toks[i]) {
					i++
				}
			}
		case t == "pulse" || t == "sin" || t == "pwl":
			vals, next, err := collectArgs(toks, i+1)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("%s: %w", t, err)
			}
			w, err := buildWave(t, vals)
			if err != nil {
				return nil, 0, 0, err
			}
			wave = w
			i = next
		default:
			v, err := ParseValue(t)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("unexpected token %q", t)
			}
			dc = v
			i++
		}
	}
	return wave, dc, ac, nil
}

func isWaveKeyword(t string) bool {
	return t == "pulse" || t == "sin" || t == "pwl" || t == "dc" || t == "ac"
}

// collectArgs gathers the numeric arguments following a waveform keyword;
// tokenize has already split parentheses into separate tokens.
func collectArgs(toks []string, i int) ([]float64, int, error) {
	var vals []float64
	expectClose := false
	if i < len(toks) && toks[i] == "(" {
		expectClose = true
		i++
	}
	for i < len(toks) {
		t := toks[i]
		if t == ")" {
			i++
			return vals, i, nil
		}
		v, err := ParseValue(t)
		if err != nil {
			if expectClose {
				return nil, 0, fmt.Errorf("bad argument %q", t)
			}
			return vals, i, nil
		}
		vals = append(vals, v)
		i++
	}
	if expectClose {
		return nil, 0, fmt.Errorf("missing )")
	}
	return vals, i, nil
}

func buildWave(kind string, v []float64) (Waveform, error) {
	get := func(i int) float64 {
		if i < len(v) {
			return v[i]
		}
		return 0
	}
	switch kind {
	case "pulse":
		if len(v) < 2 {
			return nil, fmt.Errorf("netlist: pulse needs at least v1 v2")
		}
		return &Pulse{V1: get(0), V2: get(1), TD: get(2), TR: get(3), TF: get(4), PW: get(5), PER: get(6)}, nil
	case "sin":
		if len(v) < 3 {
			return nil, fmt.Errorf("netlist: sin needs vo va freq")
		}
		return &Sin{VO: get(0), VA: get(1), Freq: get(2), TD: get(3), Theta: get(4)}, nil
	case "pwl":
		if len(v) == 0 || len(v)%2 != 0 {
			return nil, fmt.Errorf("netlist: pwl needs time/value pairs")
		}
		w := &PWL{}
		for i := 0; i < len(v); i += 2 {
			w.T = append(w.T, v[i])
			w.V = append(w.V, v[i+1])
		}
		for i := 1; i < len(w.T); i++ {
			if w.T[i] < w.T[i-1] {
				return nil, fmt.Errorf("netlist: pwl times must be non-decreasing")
			}
		}
		return w, nil
	}
	return nil, fmt.Errorf("netlist: unknown waveform %q", kind)
}

// tokenize appends the fields of a card to toks in one scan and returns
// the extended slice. Fields are substrings of the card: runs of Unicode
// white space (unicode.IsSpace) and commas separate fields, parentheses
// are fields of their own, and key=value stays one field. Bytes that are
// not valid UTF-8 are never separators and are kept verbatim inside
// their field.
func tokenize(toks []string, card string) []string {
	start := -1 // first byte of the open field, -1 between fields
	for i := 0; i < len(card); {
		ch, size := rune(card[i]), 1
		var sep, paren bool
		switch {
		case ch == '(' || ch == ')':
			sep, paren = true, true
		case ch == ',' || ch == ' ':
			sep = true
		case ch < utf8.RuneSelf:
			sep = uint32(ch-'\t') <= '\r'-'\t' // \t \n \v \f \r
		default:
			ch, size = utf8.DecodeRuneInString(card[i:])
			sep = unicode.IsSpace(ch)
		}
		switch {
		case sep:
			if start >= 0 {
				toks = append(toks, card[start:i])
				start = -1
			}
			if paren {
				toks = append(toks, card[i:i+1])
			}
		case start < 0:
			start = i
		}
		i += size
	}
	if start >= 0 {
		toks = append(toks, card[start:])
	}
	return toks
}

// norm maps a lowercased node field to its canonical name.
func norm(node string) string {
	if node == "gnd" {
		return Ground
	}
	return node
}

// NormNode normalizes a node name given outside a deck (a command-line
// port list, say) the way Parse normalizes the node fields of a card:
// surrounding white space trimmed, lowercased, and "gnd" mapped to
// Ground.
func NormNode(name string) string {
	return norm(strings.ToLower(strings.TrimSpace(name)))
}

// Write renders the deck back to SPICE text: title, models, subcircuit
// definitions that are still referenced by X instances in Elements,
// elements, control cards, .end. (Parse flattens instances, so decks from
// Parse write flat; decks constructed with explicit Subckts and
// XInstances round-trip hierarchically.)
func (d *Deck) Write(w io.Writer) error {
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
	var line []byte
	for _, k := range subNames {
		sub := d.Subckts[k]
		fmt.Fprintf(bw, ".subckt %s %s\n", sub.Ident, strings.Join(sub.Ports, " "))
		for _, e := range sub.Elements {
			line = writeCard(bw, line, e)
		}
		fmt.Fprintln(bw, ".ends")
	}
	for _, e := range d.Elements {
		line = writeCard(bw, line, e)
	}
	for _, c := range d.Controls {
		fmt.Fprintln(bw, c)
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// writeCard writes e's card and a newline to bw. Resistors and
// capacitors, every card of a realized deck, are appended into the
// reused line buffer with no per-card allocation; the buffer is returned
// for the next card.
func writeCard(bw *bufio.Writer, line []byte, e Element) []byte {
	switch x := e.(type) {
	case *Resistor:
		line = appendTwoTerminal(line[:0], x.Ident, x.N1, x.N2, x.Value)
	case *Capacitor:
		line = appendTwoTerminal(line[:0], x.Ident, x.N1, x.N2, x.Value)
	default:
		line = append(line[:0], e.Card()...)
	}
	line = append(line, '\n')
	bw.Write(line)
	return line
}

// String renders the deck as SPICE text. The builder is grown once to
// sizeHint, which bounds a realized deck's text from above, so the call
// allocates about its output once instead of regrowing across the deck.
func (d *Deck) String() string {
	var b strings.Builder
	b.Grow(d.sizeHint())
	if err := d.Write(&b); err != nil {
		return ""
	}
	return b.String()
}

// otherCardHint is sizeHint's allowance for a card whose text only its
// Card method renders: models, subcircuit headers, and elements other
// than resistors and capacitors. It is a guess; a deck of many such
// cards may regrow the builder, which costs allocations, not bytes.
const otherCardHint = 64

// sizeHint estimates the length of d's SPICE text: exact for the title,
// controls, .end and the fields of every R and C card, maxValueLen for
// each card's value, and otherCardHint for every other card. It counts
// subcircuits Write skips as unreferenced, so for a deck of R and C
// cards, every realized deck, it is an upper bound.
func (d *Deck) sizeHint() int {
	n := len(d.Title) + 1 + otherCardHint*len(d.Models) + elementsHint(d.Elements) + len(".end\n")
	for _, sub := range d.Subckts {
		n += otherCardHint + elementsHint(sub.Elements) + len(".ends\n")
	}
	for _, c := range d.Controls {
		n += len(c) + 1
	}
	return n
}

// elementsHint is sizeHint's share for one element list: ident, the two
// nodes, three separators, the value and the newline of each R or C card.
func elementsHint(elems []Element) int {
	n := 0
	for _, e := range elems {
		switch x := e.(type) {
		case *Resistor:
			n += len(x.Ident) + len(x.N1) + len(x.N2) + 4 + maxValueLen
		case *Capacitor:
			n += len(x.Ident) + len(x.N1) + len(x.N2) + 4 + maxValueLen
		default:
			n += otherCardHint
		}
	}
	return n
}
