// Package netlist models SPICE decks: parsing, in-memory representation
// and writing of the element classes the RCFIT flow needs — resistors,
// capacitors, inductors, junction diodes, independent sources with
// DC/PULSE/SIN/PWL waveforms, level-1 MOSFETs with .MODEL cards,
// subcircuits (flattened on parse), and the analysis control cards. The parser
// accepts the usual SPICE conventions: leading-letter element typing,
// '*' comments, '+' continuation lines, case insensitivity, and
// engineering unit suffixes (f p n u m k meg g t, plus 'mil').
package netlist

import (
	"fmt"
	"strings"
)

// Ground is the canonical ground node name; "gnd" is normalized to it.
const Ground = "0"

// Deck is a parsed SPICE netlist. Subcircuit instances are flattened by
// Parse, so Elements holds only primitive elements; the definitions stay
// available in Subckts for inspection but are not re-emitted by Write.
type Deck struct {
	Title    string
	Elements []Element
	Models   map[string]*Model
	Subckts  map[string]*Subckt
	// Controls holds non-element cards (.tran, .ac, .print, ...) verbatim
	// (lowercased, continuations joined) so a rewritten deck keeps its
	// analysis setup.
	Controls []string
	// ParseNs is the wall time Parse spent building this deck (zero for
	// decks constructed programmatically); pact.ReduceDeck folds it into
	// the per-stage reduction accounting.
	ParseNs int64
}

// Element is any circuit element.
type Element interface {
	// Name returns the element name, e.g. "r12" (lowercase).
	Name() string
	// Nodes returns the element's node names in declaration order.
	Nodes() []string
	// Card renders the element as a SPICE card.
	Card() string
}

// Resistor is a two-terminal resistor.
type Resistor struct {
	Ident  string
	N1, N2 string
	Value  float64 // ohms
}

func (r *Resistor) Name() string    { return r.Ident }
func (r *Resistor) Nodes() []string { return []string{r.N1, r.N2} }
func (r *Resistor) Card() string {
	return string(appendTwoTerminal(nil, r.Ident, r.N1, r.N2, r.Value))
}

// Capacitor is a two-terminal capacitor.
type Capacitor struct {
	Ident  string
	N1, N2 string
	Value  float64 // farads
}

func (c *Capacitor) Name() string    { return c.Ident }
func (c *Capacitor) Nodes() []string { return []string{c.N1, c.N2} }
func (c *Capacitor) Card() string {
	return string(appendTwoTerminal(nil, c.Ident, c.N1, c.N2, c.Value))
}

// appendTwoTerminal appends the card "<ident> <n1> <n2> <value>" of a
// resistor or capacitor to dst.
func appendTwoTerminal(dst []byte, ident, n1, n2 string, v float64) []byte {
	dst = append(dst, ident...)
	dst = append(dst, ' ')
	dst = append(dst, n1...)
	dst = append(dst, ' ')
	dst = append(dst, n2...)
	dst = append(dst, ' ')
	return AppendValue(dst, v)
}

// Diode is a two-terminal junction diode referencing a .model card of
// type "d" (parameters: is, n, cj0).
type Diode struct {
	Ident     string
	N1, N2    string // anode, cathode
	ModelName string
}

func (d *Diode) Name() string    { return d.Ident }
func (d *Diode) Nodes() []string { return []string{d.N1, d.N2} }
func (d *Diode) Card() string {
	return fmt.Sprintf("%s %s %s %s", d.Ident, d.N1, d.N2, d.ModelName)
}

// Inductor is a two-terminal inductor. Inductors are simulated (the
// intro's package-inductance scenarios) but excluded from PACT reduction,
// which is defined for RC networks; their nodes therefore become ports of
// any RC network they touch.
type Inductor struct {
	Ident  string
	N1, N2 string
	Value  float64 // henries
}

func (l *Inductor) Name() string    { return l.Ident }
func (l *Inductor) Nodes() []string { return []string{l.N1, l.N2} }
func (l *Inductor) Card() string {
	return fmt.Sprintf("%s %s %s %s", l.Ident, l.N1, l.N2, FormatValue(l.Value))
}

// VSource is an independent voltage source.
type VSource struct {
	Ident  string
	N1, N2 string // positive, negative
	DC     float64
	ACMag  float64  // small-signal AC magnitude (0 when absent)
	Wave   Waveform // nil means pure DC
}

func (v *VSource) Name() string    { return v.Ident }
func (v *VSource) Nodes() []string { return []string{v.N1, v.N2} }
func (v *VSource) Card() string {
	s := fmt.Sprintf("%s %s %s dc %s", v.Ident, v.N1, v.N2, FormatValue(v.DC))
	if v.ACMag != 0 {
		s += fmt.Sprintf(" ac %s", FormatValue(v.ACMag))
	}
	if v.Wave != nil {
		s += " " + v.Wave.Card()
	}
	return s
}

// At returns the source value at time t (DC when no waveform).
func (v *VSource) At(t float64) float64 {
	if v.Wave == nil {
		return v.DC
	}
	return v.Wave.At(t)
}

// ISource is an independent current source (current flows from N1 through
// the source to N2).
type ISource struct {
	Ident  string
	N1, N2 string
	DC     float64
	ACMag  float64
	Wave   Waveform
}

func (i *ISource) Name() string    { return i.Ident }
func (i *ISource) Nodes() []string { return []string{i.N1, i.N2} }
func (i *ISource) Card() string {
	s := fmt.Sprintf("%s %s %s dc %s", i.Ident, i.N1, i.N2, FormatValue(i.DC))
	if i.ACMag != 0 {
		s += fmt.Sprintf(" ac %s", FormatValue(i.ACMag))
	}
	if i.Wave != nil {
		s += " " + i.Wave.Card()
	}
	return s
}

// At returns the source value at time t.
func (i *ISource) At(t float64) float64 {
	if i.Wave == nil {
		return i.DC
	}
	return i.Wave.At(t)
}

// MOSFET is a four-terminal MOSFET instance referencing a .MODEL card.
type MOSFET struct {
	Ident      string
	D, G, S, B string
	ModelName  string
	W, L       float64 // meters
}

func (m *MOSFET) Name() string    { return m.Ident }
func (m *MOSFET) Nodes() []string { return []string{m.D, m.G, m.S, m.B} }
func (m *MOSFET) Card() string {
	return fmt.Sprintf("%s %s %s %s %s %s w=%s l=%s",
		m.Ident, m.D, m.G, m.S, m.B, m.ModelName, FormatValue(m.W), FormatValue(m.L))
}

// Model is a .MODEL card. Type is "nmos" or "pmos"; Params holds the
// level-1 parameters (vto, kp, gamma, phi, lambda, cgso, cgdo, cbd, cbs,
// ...), all lowercase.
type Model struct {
	Ident  string
	Type   string
	Params map[string]float64
}

// Param returns a parameter with a default.
func (m *Model) Param(name string, def float64) float64 {
	if v, ok := m.Params[name]; ok {
		return v
	}
	return def
}

// Card renders the .model card.
func (m *Model) Card() string {
	var b strings.Builder
	fmt.Fprintf(&b, ".model %s %s", m.Ident, m.Type)
	// Deterministic order for reproducible output.
	keys := make([]string, 0, len(m.Params))
	for k := range m.Params {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, FormatValue(m.Params[k]))
	}
	return b.String()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// NodeNames returns all distinct node names in deck order of first
// appearance, excluding ground.
func (d *Deck) NodeNames() []string {
	seen := map[string]bool{Ground: true}
	var out []string
	for _, e := range d.Elements {
		for _, n := range e.Nodes() {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// ElementsOfType returns the deck's elements matching the given leading
// letter ('r', 'c', 'v', 'i', 'm').
func (d *Deck) ElementsOfType(letter byte) []Element {
	var out []Element
	for _, e := range d.Elements {
		if e.Name()[0] == letter {
			out = append(out, e)
		}
	}
	return out
}
