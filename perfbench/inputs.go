package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	pact "repro"
	"repro/internal/netgen"
	"repro/internal/netlist"
)

// jitterFrac is the half-width of the seeded relative perturbation
// applied to every R and C value: a held-out seed gives a deck of the
// same shape and nearly the same numerical behaviour, but different
// bytes, so nothing can be tuned to one seed's exact input.
const jitterFrac = 0.001

// deckClass is one shape of generated deck: a netgen generator and the
// reduction parameters every deck of that shape is reduced with.
type deckClass struct {
	label string
	build func() (*netlist.Deck, error)
	opts  pact.Options
}

// instance is one generated deck: SPICE text ready to parse or POST.
type instance struct {
	class *deckClass
	text  string
}

// generate builds the class's deck, jitters its element values from
// rng and renders it as SPICE text.
func (c *deckClass) generate(rng *rand.Rand) (instance, error) {
	deck, err := c.build()
	if err != nil {
		return instance{}, fmt.Errorf("generate %s: %w", c.label, err)
	}
	for _, e := range deck.Elements {
		switch el := e.(type) {
		case *netlist.Resistor:
			el.Value *= 1 + jitterFrac*(2*rng.Float64()-1)
		case *netlist.Capacitor:
			el.Value *= 1 + jitterFrac*(2*rng.Float64()-1)
		}
	}
	return instance{class: c, text: deck.String()}, nil
}

// query renders the class's reduction parameters as the /reduce query
// string of the service, which maps them back to the same pact.Options.
func (c *deckClass) query() string {
	q := url.Values{}
	q.Set("fmax", strconv.FormatFloat(c.opts.FMax, 'g', -1, 64))
	if c.opts.Tol > 0 {
		q.Set("tol", strconv.FormatFloat(c.opts.Tol, 'g', -1, 64))
	}
	if c.opts.MaxPoles > 0 {
		q.Set("maxpoles", strconv.Itoa(c.opts.MaxPoles))
	}
	if len(c.opts.Shifts) > 0 {
		s := make([]string, len(c.opts.Shifts))
		for i, f := range c.opts.Shifts {
			s[i] = strconv.FormatFloat(f, 'g', -1, 64)
		}
		q.Set("shifts", strings.Join(s, ","))
	}
	return "/reduce?" + q.Encode()
}

// workload is one named traffic shape. Its batch deck is reduced one at
// a time and timed end to end; a workload without one (service-mix) times
// the direct reduction of its service decks instead. The service family
// is the deck mix the in-process service rounds send.
type workload struct {
	name  string
	batch *deckClass
	// family is cycled in order, so every seed sends the same multiset of
	// deck shapes and only the element values differ.
	family []*deckClass
	// hot is the pre-warmed hot-set size; serialN requests are sent one at
	// a time, then closedN by nproc closed-loop clients. One request in
	// every freshEvery carries a never-sent deck.
	hot, serialN, closedN int
}

// freshEvery places one never-sent deck in every block of this many
// requests (20% misses); the other slots repeat the hot set.
const freshEvery = 5

// setupReps is how many times a run sets up, reporting the median.
const setupReps = 3

const (
	gridFMax     = 1e9
	ladderFMax   = 5e9
	widebandFMax = 2e10
)

func powerGridClass(nodes int) *deckClass {
	return &deckClass{
		label: fmt.Sprintf("powergrid-%d", nodes),
		build: func() (*netlist.Deck, error) {
			d, _, err := netgen.PowerGrid(netgen.PowerGridPreset(nodes))
			return d, err
		},
		opts: pact.Options{FMax: gridFMax, Tol: 0.05},
	}
}

// wideBandClass is an n×n graded grid with a p×p port subgrid, reduced
// multi-point at {0, f_max}.
func wideBandClass(n, p, maxPoles int) *deckClass {
	o := netgen.WideBandPreset(p * p)
	o.NX, o.NY = n, n
	return &deckClass{
		label: fmt.Sprintf("wideband-%dx%d-%dports", n, n, p*p),
		build: func() (*netlist.Deck, error) {
			d, _, err := netgen.WideBand(o)
			return d, err
		},
		opts: pact.Options{FMax: widebandFMax, Tol: 0.05, MaxPoles: maxPoles,
			Shifts: []float64{0, widebandFMax}},
	}
}

func ladderClass(nseg int) *deckClass {
	return &deckClass{
		label: fmt.Sprintf("ladder-%d", nseg),
		build: func() (*netlist.Deck, error) { return netgen.Ladder(nseg, 250, 1.35e-12), nil },
		opts:  pact.Options{FMax: ladderFMax, Tol: 0.05},
	}
}

// spread returns n sizes evenly spaced from lo to hi. Service families
// use it so deck sizes, and therefore request costs, form a dense
// distribution whose percentiles do not jump between a few size modes.
func spread(lo, hi, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + (hi-lo)*i/(n-1)
	}
	return out
}

// workloads returns the benchmark's workloads by name. tiny selects the
// reduced-size versions the benchmark's own tests run.
func workloads(tiny bool) map[string]*workload {
	var gridFam, wideFam, mixFam []*deckClass
	for _, nodes := range spread(100, 400, 12) {
		gridFam = append(gridFam, powerGridClass(nodes))
	}
	for i, n := range spread(8, 14, 12) {
		wideFam = append(wideFam, wideBandClass(n, 2+i%3, 0))
	}
	for i, nseg := range spread(40, 400, 10) {
		mixFam = append(mixFam, ladderClass(nseg))
		if i%2 == 1 {
			mixFam = append(mixFam, wideBandClass(8+i/2, 2+i%3, 0))
		}
	}
	grid := &workload{name: "grid100k", batch: powerGridClass(100_000), family: gridFam,
		hot: 24, serialN: 1000, closedN: 1000}
	wide := &workload{name: "wideband256-multipoint", batch: wideBandClass(24, 16, 48), family: wideFam,
		hot: 24, serialN: 1000, closedN: 1000}
	mix := &workload{name: "service-mix", family: mixFam,
		hot: 24, serialN: 1000, closedN: 1000}
	if tiny {
		grid.batch = powerGridClass(900)
		wide.batch = wideBandClass(12, 4, 16)
		for _, w := range []*workload{grid, wide, mix} {
			w.hot, w.serialN, w.closedN = 6, 50, 30
		}
	}
	return map[string]*workload{grid.name: grid, wide.name: wide, mix.name: mix}
}
