package pact

import (
	"strings"
	"testing"

	"repro/internal/netgen"
)

// TestReductionCountsMatchDeckViews pins the counts ReduceDeck takes
// from the extraction's interning pass and its one-pass count of the
// output against the deck views they replaced: Deck.NodeNames and
// Deck.ElementsOfType on the input and the reduced deck, with a wrapped
// reduction also counting its subcircuit body and internal nodes.
func TestReductionCountsMatchDeckViews(t *testing.T) {
	const mixed = `devices, subcircuit and a floating island
.subckt seg a b
r1 a m 25
c1 m 0 50f
r2 m b 25
c2 b 0 50f
.ends
.model nch nmos vto=0.7
v1 in 0 dc 1 ac 1
m1 drv in 0 0 nch w=2u l=1u
x1 drv n1 seg
x2 n1 n2 seg
x3 n2 out seg
m2 sink out 0 0 nch w=2u l=1u
rload sink 0 1k
cload out 0 20f
r9 fa fb 5
c9 fb 0 1p
i1 out 0 dc 0
.end
`
	for _, tc := range []struct{ name, text string }{
		{"mixed", mixed},
		{"ladder", netgen.Ladder(60, 250, 1.35e-12).String()},
	} {
		name, text := tc.name, tc.text
		for _, asSubckt := range []bool{false, true} {
			deck, err := ParseString(text)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			red, err := ReduceDeck(deck, Options{FMax: 5e9, Tol: 0.05, AsSubckt: asSubckt})
			if err != nil {
				t.Fatalf("%s (subckt %v): %v", name, asSubckt, err)
			}
			out := red.Deck
			if name == "mixed" && strings.Contains(out.String(), "\nr9 ") {
				t.Fatalf("floating island r9/c9 survived the reduction")
			}
			wantR, wantC := len(out.ElementsOfType('r')), len(out.ElementsOfType('c'))
			wantNodes := len(out.NodeNames())
			if asSubckt {
				for _, sub := range out.Subckts {
					for _, e := range sub.Elements {
						switch e.Name()[0] {
						case 'r':
							wantR++
						case 'c':
							wantC++
						}
					}
				}
				wantNodes += red.Model.K()
			}
			got := [6]int{red.OriginalNodes, red.OriginalR, red.OriginalC, red.ReducedNodes, red.ReducedR, red.ReducedC}
			want := [6]int{len(deck.NodeNames()), len(deck.ElementsOfType('r')), len(deck.ElementsOfType('c')), wantNodes, wantR, wantC}
			if got != want {
				t.Errorf("%s (subckt %v): nodes/R/C in, out = %v, deck views give %v", name, asSubckt, got, want)
			}
		}
	}
}
