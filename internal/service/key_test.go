package service

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

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
	p := Params{FMax: 1e9, Tol: 0.05}
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

// TestKeysSeparateParams pins that every Params field participates in
// both keys: the same deck at a different tolerance, fmax or pole cap
// must address a different cache entry.
func TestKeysSeparateParams(t *testing.T) {
	d := mustParse(t, deckA)
	base := Params{FMax: 1e9, Tol: 0.05}
	for _, p := range []Params{
		{FMax: 2e9, Tol: 0.05},
		{FMax: 1e9, Tol: 0.1},
		{FMax: 1e9, Tol: 0.05, MaxPoles: 3},
		{FMax: 1e9, Tol: 0.05, Shifts: []float64{0, 1e9}},
		{FMax: 1e9, Tol: 0.05, Shifts: []float64{0, 1e9}, PortClusters: 2},
	} {
		if CanonicalKey(d, base) == CanonicalKey(d, p) {
			t.Fatalf("params %+v and %+v share a canonical key", base, p)
		}
		if RawKey([]byte(deckA), base) == RawKey([]byte(deckA), p) {
			t.Fatalf("params %+v and %+v share a raw key", base, p)
		}
	}
}

// TestCanonicalKeyStreamsCanonicalForm pins that streaming the deck
// into the hasher addresses exactly what hashing the rendered canonical
// text would: sha256(Canonicalize(deck) ‖ 0 ‖ id()).
func TestCanonicalKeyStreamsCanonicalForm(t *testing.T) {
	for _, src := range []string{deckA, deckB} {
		d := mustParse(t, src)
		for _, p := range []Params{
			{FMax: 1e9, Tol: 0.05},
			{FMax: 1e9, Tol: 0.05, Shifts: []float64{0, 1e9}, PortClusters: 2},
		} {
			sum := sha256.Sum256([]byte(Canonicalize(d) + "\x00" + p.id()))
			if got, want := CanonicalKey(d, p), hex.EncodeToString(sum[:]); got != want {
				t.Fatalf("streamed key %s, want %s for params %+v", got, want, p)
			}
		}
	}
}

// TestParamsIDCoversEveryField sets each Params field in turn to a
// non-zero value and requires id() to change. Both keys fold in id(),
// and a raw-key hit serves a cached model without parsing, so a field
// missing from id() would serve a model built with other settings.
func TestParamsIDCoversEveryField(t *testing.T) {
	base := Params{}.id()
	typ := reflect.TypeOf(Params{})
	for i := 0; i < typ.NumField(); i++ {
		var p Params
		f := reflect.ValueOf(&p).Elem().Field(i)
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(1.5)
		case reflect.Int:
			f.SetInt(3)
		case reflect.Slice:
			f.Set(reflect.Append(reflect.MakeSlice(f.Type(), 0, 1), reflect.ValueOf(1.5).Convert(f.Type().Elem())))
		default:
			t.Fatalf("Params.%s has kind %s: extend this test to set it", typ.Field(i).Name, f.Kind())
		}
		if p.id() == base {
			t.Errorf("Params.%s = %v does not change id() %q", typ.Field(i).Name, f.Interface(), base)
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

func TestParamsValidate(t *testing.T) {
	for _, p := range []Params{
		{},                            // missing fmax
		{FMax: -1},                    // negative fmax
		{FMax: 1e9, Tol: -0.1},        // negative tol
		{FMax: 1e9, Tol: 1},           // tol at 1
		{FMax: 1e9, MaxPoles: -2},     // negative cap
		{FMax: 1e9, PortClusters: -1}, // negative cluster count
		{FMax: 1e9, PortClusters: 4},  // clustering without shifts
	} {
		if err := p.validate(); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
	if err := (Params{FMax: 1e9, Tol: 0.05}).validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	if err := (Params{FMax: 1e9, Shifts: []float64{0, 1e9}, PortClusters: 4}).validate(); err != nil {
		t.Fatalf("good multi-point params rejected: %v", err)
	}
}

// TestShiftSetCanonicalizationSharesKeys pins the multi-point cache
// contract: every listing order (and duplicate spelling) of one
// expansion-point set canonicalizes to one shift slice and therefore one
// canonical key, while a genuinely different set gets its own key.
func TestShiftSetCanonicalizationSharesKeys(t *testing.T) {
	d := mustParse(t, deckA)
	mk := func(shifts ...float64) Params {
		p := Params{FMax: 1e9, Tol: 0.05, Shifts: shifts}
		if err := p.canonicalizeShifts(); err != nil {
			t.Fatalf("canonicalize %v: %v", shifts, err)
		}
		return p
	}
	ref := CanonicalKey(d, mk(0, 1e8, 1e9))
	for _, p := range []Params{
		mk(1e9, 0, 1e8),
		mk(1e8, 1e9, 0, 1e8), // duplicate collapses
	} {
		if CanonicalKey(d, p) != ref {
			t.Fatalf("equivalent shift set %v split the cache key", p.Shifts)
		}
	}
	if CanonicalKey(d, mk(0, 1e9)) == ref {
		t.Fatal("distinct shift sets share a canonical key")
	}
	var bad Params
	bad.Shifts = []float64{-1}
	if err := bad.canonicalizeShifts(); err == nil {
		t.Fatal("negative shift must be rejected at canonicalization")
	}
}
