package pact

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/stamp"
)

// Options configures a reduction.
type Options struct {
	// FMax is the maximum frequency (Hz) at which the reduced network must
	// match the original within Tol. Required.
	FMax float64
	// Tol is the relative error tolerance (0 selects the default 0.05 =
	// 5%, mapping to the paper's cutoff factor of 3.04).
	Tol float64
	// Ordering for the Cholesky of the internal conductance block
	// (default minimum degree).
	Ordering Ordering
	// LanczosMode for the pole analysis (default Selective = LASO).
	LanczosMode LanczosMode
	// TwoPass selects the memory-minimal two-pass Lanczos.
	TwoPass bool
	// MaxPoles optionally caps the number of retained poles, keeping the
	// ones with the largest band-weighted residue strength (not the
	// slowest), on the single- and multi-point paths alike. See
	// core.Options.MaxPoles.
	MaxPoles int
	// Shifts selects multi-expansion-point reduction: the projection basis
	// is built from moment responses at each listed frequency (Hz; 0 is
	// the DC point of classic PACT) instead of the s = 0 eigenanalysis
	// alone. When the shifts define at least as many candidate columns as
	// there are internal nodes (ShiftMoments·ports per DC shift, twice
	// that per nonzero shift), the basis could at best span the whole
	// internal space, so the poles come from the dense eigenpath instead
	// (see core.Options.Shifts). Listing order and duplicates are
	// irrelevant — the set is canonicalized. Empty keeps the single-point
	// path.
	Shifts []float64
	// ShiftMoments is the number of moment vectors per expansion point
	// (default 1).
	ShiftMoments int
	// PortClusters, when positive, thins the multi-point basis cluster by
	// cluster after grouping ports by electrical proximity on the exact
	// port conductance block (TurboMOR-style port clustering) before the
	// global union. Only meaningful together with Shifts, and only when
	// the candidate columns number fewer than the internal nodes:
	// otherwise the union it thins is never built.
	PortClusters int
	// ResiduePruneTol additionally drops retained poles whose worst-case
	// contribution below FMax is smaller than this fraction of the
	// admittance scale (0 disables): the threshold of the MaxPoles
	// selector. See core.Options.ResiduePruneTol.
	ResiduePruneTol float64
	// SparsifyTol enables the RCFIT sparsity-enhancement heuristic on the
	// realized matrices (relative threshold; 0 disables).
	SparsifyTol float64
	// Prefix names generated elements and internal nodes (default
	// "pact"). It must be one SPICE name token: no white space, commas,
	// parentheses, '=' or '$'.
	Prefix string
	// ExtraPorts forces the given nodes to be treated as ports in
	// addition to the automatically detected ones. Names are matched the
	// way the parser reads node fields: trimmed, case-insensitive, "gnd"
	// meaning ground. Port order comes from the deck.
	ExtraPorts []string
	// Seed seeds the Lanczos starting vector (default 1); reductions are
	// deterministic for a fixed seed.
	Seed int64
	// AsSubckt wraps the realized reduced network in a .subckt definition
	// plus one instance, instead of splicing flat R/C cards into the deck.
	AsSubckt bool
}

func (o Options) coreOptions() core.Options {
	return core.Options{
		FMax:        o.FMax,
		Tol:         o.Tol,
		Ordering:    o.Ordering,
		LanczosMode: o.LanczosMode,
		TwoPass:     o.TwoPass,
		MaxPoles:    o.MaxPoles,
		Seed:        o.Seed,

		Shifts:          o.Shifts,
		ShiftMoments:    o.ShiftMoments,
		PortClusters:    o.PortClusters,
		ResiduePruneTol: o.ResiduePruneTol,
	}
}

// Canonical validates o and returns it with every default explicit, the
// shift set and extra ports (normalized like deck nodes) sorted and
// deduplicated. core.Options.Resolve checks the reduction fields; the
// realization ones need a finite SparsifyTol ≥ 0 and a Prefix that is one
// SPICE name token, as it is pasted into element and node names. The
// result reduces a deck to the same bytes as o.
func (o Options) Canonical() (Options, error) {
	c, err := o.coreOptions().Resolve()
	if err != nil {
		return Options{}, err
	}
	o.Tol, o.Seed, o.ShiftMoments, o.Shifts = c.Tol, c.Seed, c.ShiftMoments, c.Shifts
	if !(o.SparsifyTol >= 0) || math.IsInf(o.SparsifyTol, 1) {
		return Options{}, fmt.Errorf("pact: Options.SparsifyTol must be non-negative and finite, got %g", o.SparsifyTol)
	}
	if o.Prefix == "" {
		o.Prefix = stamp.DefaultPrefix
	}
	if strings.ContainsFunc(o.Prefix, func(r rune) bool {
		return unicode.IsSpace(r) || !unicode.IsPrint(r) || strings.ContainsRune(",()=$", r)
	}) {
		return Options{}, fmt.Errorf("pact: Options.Prefix %q is not one SPICE name token", o.Prefix)
	}
	ports := make([]string, len(o.ExtraPorts))
	for i, p := range o.ExtraPorts {
		ports[i] = netlist.NormNode(p)
	}
	slices.Sort(ports)
	o.ExtraPorts = slices.Compact(ports)
	return o, nil
}

// Key renders every field of o exactly: floats in hex, so only bit-equal
// values collide, and names quoted. Taken after Canonical it is the
// request part of rcfitd's cache keys, so a field missing here would serve
// a model built with other settings (TestOptionsKeyCoversEveryField).
func (o Options) Key() string {
	return fmt.Sprintf("fmax=%x;tol=%x;ordering=%d;lanczos=%d;twopass=%t;maxpoles=%d;shifts=%x;shiftmoments=%d;"+
		"portcluster=%d;prune=%x;sparsify=%x;prefix=%q;ports=%q;seed=%d;subckt=%t",
		o.FMax, o.Tol, o.Ordering, o.LanczosMode, o.TwoPass, o.MaxPoles, o.Shifts, o.ShiftMoments,
		o.PortClusters, o.ResiduePruneTol, o.SparsifyTol, o.Prefix, o.ExtraPorts, o.Seed, o.AsSubckt)
}

// requestOption is one rcfit flag and rcfitd query parameter: field points
// at the Options field it sets, whose type decides how a value parses.
type requestOption struct {
	name, usage string
	field       func(o *Options) any
}

// requestOptions is the name → field table of the front ends. A default
// is the zero value of its field, resolved by Canonical.
var requestOptions = []requestOption{
	{"fmax", "maximum frequency of interest in Hz (required)", func(o *Options) any { return &o.FMax }},
	{"tol", "relative error tolerance at fmax (default 0.05)", func(o *Options) any { return &o.Tol }},
	{"sparsify", "sparsity-enhancement threshold on the realized network (default 0: off)", func(o *Options) any { return &o.SparsifyTol }},
	{"ports", "comma-separated extra port nodes", func(o *Options) any { return &o.ExtraPorts }},
	{"prefix", "name prefix for generated elements (default pact)", func(o *Options) any { return &o.Prefix }},
	{"maxpoles", "cap on retained poles, keeping the strongest by band-weighted residue (default 0: no cap)", func(o *Options) any { return &o.MaxPoles }},
	{"shifts", "comma-separated expansion-point frequencies in Hz for multi-point reduction (default none: single-point)", func(o *Options) any { return &o.Shifts }},
	{"portcluster", "cluster ports into this many groups to thin the multi-point basis (requires shifts; default 0: off)", func(o *Options) any { return &o.PortClusters }},
	{"twopass", "use the memory-minimal two-pass Lanczos", func(o *Options) any { return &o.TwoPass }},
	{"subckt", "emit the reduced network as a .subckt plus one instance", func(o *Options) any { return &o.AsSubckt }},
}

// set parses v into the option's field of o. Lists are comma-separated,
// and a switch takes the spellings of strconv.ParseBool.
func (r requestOption) set(o *Options, v string) (err error) {
	switch p := r.field(o).(type) {
	case *float64:
		*p, err = strconv.ParseFloat(v, 64)
	case *int:
		*p, err = strconv.Atoi(v)
	case *bool:
		*p, err = strconv.ParseBool(v)
	case *string:
		*p = v
	case *[]string:
		*p = splitList(v)
	case *[]float64:
		*p = nil
		for _, tok := range splitList(v) {
			f, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				return err
			}
			*p = append(*p, f)
		}
	}
	return err
}

// splitList splits a comma-separated list; the empty string is no list.
func splitList(v string) []string {
	if v == "" {
		return nil
	}
	return strings.Split(v, ",")
}

// Set parses value into the request option called name (fmax, tol,
// sparsify, ports, prefix, maxpoles, shifts, portcluster, twopass, subckt).
func (o *Options) Set(name, value string) error {
	for _, r := range requestOptions {
		if r.name == name {
			if err := r.set(o, value); err != nil {
				return fmt.Errorf("pact: bad %s %q: %w", name, value, err)
			}
			return nil
		}
	}
	return fmt.Errorf("pact: unknown option %q", name)
}

// RegisterFlags defines every request option on fs as a flag that sets
// its field of o; the boolean ones (twopass, subckt) are switches.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	for _, r := range requestOptions {
		set := func(v string) error { return r.set(o, v) }
		if _, isBool := r.field(o).(*bool); isBool {
			fs.BoolFunc(r.name, r.usage, set)
		} else {
			fs.Func(r.name, r.usage, set)
		}
	}
}
