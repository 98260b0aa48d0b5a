package service

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http/httptest"
	"testing"

	pact "repro"
	"repro/internal/netlist"
)

// deckA and deckB describe the identical circuit; B differs only in
// comments, blank lines, spacing and value spelling that the parser
// normalizes away.
const deckA = `key test deck
r1 in mid 250
c1 mid 0 1p
r2 mid out 250
c2 out 0 1e-12
.end
`

const deckB = `key test deck
* a comment the canonical form drops
r1   in    mid   250
c1 mid 0 1p

* another comment
r2 mid out 0.25k
c2 out 0 1p
.end
`

func mustParse(t *testing.T, s string) *netlist.Deck {
	t.Helper()
	d, err := netlist.ParseString(s)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d
}

// TestRawVsCanonicalKeys pins the content-addressing contract: decks
// differing only in comments/whitespace hash to different raw keys but
// identical canonical keys, so they share one cache entry while the
// request log still distinguishes the bytes received.
func TestRawVsCanonicalKeys(t *testing.T) {
	p := pact.Options{FMax: 1e9, Tol: 0.05}
	da, db := mustParse(t, deckA), mustParse(t, deckB)
	rawA, rawB := RawKey([]byte(deckA), p), RawKey([]byte(deckB), p)
	if rawA == rawB {
		t.Fatal("raw keys collide for different source bytes")
	}
	canA, canB := CanonicalKey(da, p), CanonicalKey(db, p)
	if canA != canB {
		t.Fatalf("canonical keys differ for equivalent decks:\n%s\nvs\n%s",
			Canonicalize(da), Canonicalize(db))
	}
	if canA == rawA {
		t.Fatal("canonical and raw keys must hash different material")
	}
}

// TestKeysSeparateParams pins that the request options participate in
// both keys: the same deck at a different tolerance, fmax, pole cap,
// shift set, clustering, sparsification, prefix, extra port or output
// form must address a different cache entry.
func TestKeysSeparateParams(t *testing.T) {
	d := mustParse(t, deckA)
	base := pact.Options{FMax: 1e9, Tol: 0.05}
	for _, p := range []pact.Options{
		{FMax: 2e9, Tol: 0.05},
		{FMax: 1e9, Tol: 0.1},
		{FMax: 1e9, Tol: 0.05, MaxPoles: 3},
		{FMax: 1e9, Tol: 0.05, Shifts: []float64{0, 1e9}},
		{FMax: 1e9, Tol: 0.05, Shifts: []float64{0, 1e9}, PortClusters: 2},
		{FMax: 1e9, Tol: 0.05, SparsifyTol: 1e-8},
		{FMax: 1e9, Tol: 0.05, Prefix: "red"},
		{FMax: 1e9, Tol: 0.05, ExtraPorts: []string{"mid"}},
		{FMax: 1e9, Tol: 0.05, TwoPass: true},
		{FMax: 1e9, Tol: 0.05, AsSubckt: true},
	} {
		if CanonicalKey(d, base) == CanonicalKey(d, p) {
			t.Fatalf("options %+v and %+v share a canonical key", base, p)
		}
		if RawKey([]byte(deckA), base) == RawKey([]byte(deckA), p) {
			t.Fatalf("options %+v and %+v share a raw key", base, p)
		}
	}
}

// TestCanonicalKeyStreamsCanonicalForm pins that streaming the deck
// into the hasher addresses exactly what hashing the rendered canonical
// text would: sha256(Canonicalize(deck) ‖ 0 ‖ Key()).
func TestCanonicalKeyStreamsCanonicalForm(t *testing.T) {
	for _, src := range []string{deckA, deckB} {
		d := mustParse(t, src)
		for _, p := range []pact.Options{
			{FMax: 1e9, Tol: 0.05},
			{FMax: 1e9, Tol: 0.05, Shifts: []float64{0, 1e9}, PortClusters: 2},
		} {
			sum := sha256.Sum256([]byte(Canonicalize(d) + "\x00" + p.Key()))
			if got, want := CanonicalKey(d, p), hex.EncodeToString(sum[:]); got != want {
				t.Fatalf("streamed key %s, want %s for options %+v", got, want, p)
			}
		}
	}
}

// TestCanonicalizeRoundTrip pins that the canonical form is a fixed
// point: parsing canonical text and canonicalizing again reproduces it
// byte for byte, so the canonical key of a canonicalized deck is stable
// across arbitrarily many round trips.
func TestCanonicalizeRoundTrip(t *testing.T) {
	for _, src := range []string{deckA, deckB} {
		can1 := Canonicalize(mustParse(t, src))
		can2 := Canonicalize(mustParse(t, can1))
		if can1 != can2 {
			t.Fatalf("canonical form is not a fixed point:\n--- first\n%s\n--- second\n%s", can1, can2)
		}
	}
}

// TestParamsValidate checks the request parameters rcfitd accepts: each
// bad query is rejected by optionsFromQuery, and good ones come back
// canonical, with the default tolerance made explicit.
func TestParamsValidate(t *testing.T) {
	parse := func(query string) (pact.Options, error) {
		return optionsFromQuery(httptest.NewRequest("POST", "/reduce?"+query, nil))
	}
	for _, q := range []string{
		"",                                     // missing fmax
		"fmax=-1",                              // negative fmax
		"fmax=1e9&tol=-0.1",                    // negative tol
		"fmax=1e9&tol=1",                       // tol at 1
		"fmax=1e9&maxpoles=-2",                 // negative cap
		"fmax=1e9&shifts=0,1e9&portcluster=-1", // negative cluster count
		"fmax=1e9&portcluster=4",               // clustering without shifts
	} {
		if opts, err := parse(q); err == nil {
			t.Errorf("query %q accepted as %+v", q, opts)
		}
	}
	for _, q := range []string{"fmax=1e9&tol=0.05", "fmax=1e9&shifts=0,1e9&portcluster=4", "fmax=1e9"} {
		opts, err := parse(q)
		if err != nil {
			t.Fatalf("good query %q rejected: %v", q, err)
		}
		if opts.Tol <= 0 || opts.Tol >= 1 {
			t.Errorf("query %q: tol %g not made explicit", q, opts.Tol)
		}
	}
}
