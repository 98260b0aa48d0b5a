package pact

import (
	"flag"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/stamp"
)

// TestOptionsValidation feeds ReduceDeck one bad option at a time. Each is
// rejected by Canonical with an error naming the field, before the
// extraction starts: the deck has no RC network, so any later stage
// would fail differently.
func TestOptionsValidation(t *testing.T) {
	deck, err := ParseString("no rc network\nv1 a 0 dc 1\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		opts  Options
	}{
		{"FMax", Options{}},
		{"FMax", Options{FMax: -1}},
		{"FMax", Options{FMax: nan}},
		{"FMax", Options{FMax: inf}},
		{"Tol", Options{FMax: 1e9, Tol: -0.1}},
		{"Tol", Options{FMax: 1e9, Tol: 1}},
		{"Tol", Options{FMax: 1e9, Tol: nan}},
		{"MaxPoles", Options{FMax: 1e9, MaxPoles: -2}},
		{"ShiftMoments", Options{FMax: 1e9, Shifts: []float64{0}, ShiftMoments: -1}},
		{"PortClusters", Options{FMax: 1e9, Shifts: []float64{0, 1e9}, PortClusters: -1}},
		{"PortClusters", Options{FMax: 1e9, PortClusters: 4}},
		{"expansion-point", Options{FMax: 1e9, Shifts: []float64{0, -1e9}}},
		{"expansion-point", Options{FMax: 1e9, Shifts: []float64{nan}}},
		{"expansion-point", Options{FMax: 1e9, Shifts: []float64{inf}}},
		{"ResiduePruneTol", Options{FMax: 1e9, ResiduePruneTol: nan}},
		{"SparsifyTol", Options{FMax: 1e9, SparsifyTol: -1e-8}},
		{"SparsifyTol", Options{FMax: 1e9, SparsifyTol: nan}},
		{"SparsifyTol", Options{FMax: 1e9, SparsifyTol: inf}},
		{"Prefix", Options{FMax: 1e9, Prefix: "x\nv9 a 0 dc 5"}},
		{"Prefix", Options{FMax: 1e9, Prefix: "a b"}},
		{"Prefix", Options{FMax: 1e9, Prefix: "p(1)"}},
		{"Prefix", Options{FMax: 1e9, Prefix: "p,q"}},
		{"Prefix", Options{FMax: 1e9, Prefix: "p=1"}},
		{"Prefix", Options{FMax: 1e9, Prefix: "p$"}},
	} {
		_, err := ReduceDeck(deck, tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: error %v, want one naming %s", tc.opts, err, tc.field)
		}
		if _, cerr := tc.opts.Canonical(); cerr == nil || err == nil || cerr.Error() != err.Error() {
			t.Errorf("%+v: Canonical error %v, ReduceDeck error %v, want the same", tc.opts, cerr, err)
		}
	}
	for _, good := range []Options{
		{FMax: 1e9, Tol: 0.05},
		{FMax: 1e9, Shifts: []float64{0, 1e9}, PortClusters: 4},
		{FMax: 1e9, SparsifyTol: 1e-8, Prefix: "red_1.x"},
	} {
		if _, err := good.Canonical(); err != nil {
			t.Errorf("%+v rejected: %v", good, err)
		}
	}
}

// TestOptionsKeyCoversEveryField sets each Options field in turn to a
// value other than its zero value and requires Key to change. The service
// keys its cache with Key, and a raw-key hit serves a cached model
// without parsing, so a field missing from Key would serve a model built
// with other settings.
func TestOptionsKeyCoversEveryField(t *testing.T) {
	base := Options{}.Key()
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		var o Options
		f := reflect.ValueOf(&o).Elem().Field(i)
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(1.5)
		case reflect.Int, reflect.Int64: // counts, the seed, and the Ordering and LanczosMode enums
			f.SetInt(2)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString("x")
		case reflect.Slice:
			switch f.Type().Elem().Kind() {
			case reflect.Float64:
				f.Set(reflect.ValueOf([]float64{1.5}))
			case reflect.String:
				f.Set(reflect.ValueOf([]string{"x"}))
			default:
				t.Fatalf("Options.%s is a slice of %s: extend this test to set it", typ.Field(i).Name, f.Type().Elem())
			}
		default:
			t.Fatalf("Options.%s has kind %s: extend this test to set it", typ.Field(i).Name, f.Kind())
		}
		if o.Key() == base {
			t.Errorf("Options.%s = %v does not change Key() %q", typ.Field(i).Name, f.Interface(), base)
		}
	}
}

// TestCanonicalSharesKeys pins the canonical form: every listing order
// and duplicate spelling of one shift set or extra-port list, in any case,
// and every explicit spelling of a default, canonicalizes to one Key; a
// different set gets its own.
func TestCanonicalSharesKeys(t *testing.T) {
	key := func(o Options) string {
		t.Helper()
		c, err := o.Canonical()
		if err != nil {
			t.Fatalf("canonicalize %+v: %v", o, err)
		}
		return c.Key()
	}
	ref := key(Options{FMax: 1e9, Shifts: []float64{0, 1e8, 1e9}, ExtraPorts: []string{"n1", "n2"}})
	for _, o := range []Options{
		{FMax: 1e9, Shifts: []float64{1e9, 0, 1e8}, ExtraPorts: []string{"N2", " n1"}},
		{FMax: 1e9, Tol: 0.05, Seed: 1, ShiftMoments: 1, Prefix: "pact",
			Shifts: []float64{1e8, 1e9, 0, 1e8}, ExtraPorts: []string{"n2", "n1", "N1"}},
	} {
		if got := key(o); got != ref {
			t.Errorf("equivalent options %+v keyed %q, want %q", o, got, ref)
		}
	}
	for _, o := range []Options{
		{FMax: 1e9, Shifts: []float64{0, 1e9}, ExtraPorts: []string{"n1", "n2"}},
		{FMax: 1e9, Shifts: []float64{0, 1e8, 1e9}, ExtraPorts: []string{"n1"}},
	} {
		if key(o) == ref {
			t.Errorf("distinct options %+v share the key %q", o, ref)
		}
	}
}

// TestSetParsesEveryRequestOption sets every request option by name, as
// rcfitd does with its query, and through the flags rcfit registers, and
// requires both to fill the same fields.
func TestSetParsesEveryRequestOption(t *testing.T) {
	values := map[string]string{
		"fmax": "5e9", "tol": "0.02", "sparsify": "1e-8", "ports": "a,B",
		"prefix": "red", "maxpoles": "7", "shifts": "5e9, 0", "portcluster": "2",
		"twopass": "true", "subckt": "1",
	}
	want := Options{FMax: 5e9, Tol: 0.02, SparsifyTol: 1e-8, ExtraPorts: []string{"a", "B"},
		Prefix: "red", MaxPoles: 7, Shifts: []float64{5e9, 0}, PortClusters: 2,
		TwoPass: true, AsSubckt: true}
	var set Options
	var args []string
	for _, r := range requestOptions {
		v, ok := values[r.name]
		if !ok {
			t.Fatalf("request option %s has no test value", r.name)
		}
		if err := set.Set(r.name, v); err != nil {
			t.Fatalf("Set(%s, %q): %v", r.name, v, err)
		}
		args = append(args, "-"+r.name+"="+v)
	}
	var flagged Options
	fs := flag.NewFlagSet("rcfit", flag.ContinueOnError)
	flagged.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set, want) || !reflect.DeepEqual(flagged, want) {
		t.Fatalf("Set gave %+v and the flags %+v, want %+v", set, flagged, want)
	}
	if err := set.Set("maxpole", "1"); err == nil || !strings.Contains(err.Error(), `"maxpole"`) {
		t.Errorf("unknown option: error %v, want one naming it", err)
	}
	if err := set.Set("shifts", "0,zap"); err == nil || !strings.Contains(err.Error(), "shifts") {
		t.Errorf("bad shift list: error %v, want one naming shifts", err)
	}
}

// TestCanonicalKeepsBytes pins that canonicalizing changes no output:
// ReduceDeck, which canonicalizes, realizes the same cards as the stages
// run by hand on the request as given, with its shifts and extra ports
// out of order and every default left zero.
func TestCanonicalKeepsBytes(t *testing.T) {
	deck := netgen.Ladder(60, 250, 1.35e-12)
	bare := Options{FMax: 5e9, Shifts: []float64{5e9, 0}, ExtraPorts: []string{"N30", "n10"}}
	red, err := ReduceDeck(deck, bare)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := stamp.Extract(deck, bare.ExtraPorts...)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := core.Reduce(ex.Sys, bare.coreOptions())
	if err != nil {
		t.Fatal(err)
	}
	elems, _, err := stamp.Realize(model, ex.PortNames, stamp.RealizeOptions{Prefix: bare.Prefix, SparsifyTol: bare.SparsifyTol})
	if err != nil {
		t.Fatal(err)
	}
	byHand := &netlist.Deck{Title: red.Deck.Title, Elements: append(ex.OtherElements, elems...)}
	if got, want := red.Deck.String(), byHand.String(); got != want {
		t.Fatalf("canonical options realized different cards:\n%s\nwant\n%s", got, want)
	}
}
