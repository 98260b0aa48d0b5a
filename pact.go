// Package pact is the public API of this repository: a Go implementation
// of PACT — Pole Analysis via Congruence Transformations (Kerns & Yang,
// DAC 1996) — for reducing large, multiport RC networks while preserving
// passivity and absolute stability, together with the SPICE-in/SPICE-out
// RCFIT flow built on top of it.
//
// Typical use mirrors RCFIT (Figure 1 of the paper):
//
//	deck, _ := pact.ParseString(spiceText)
//	red, _ := pact.ReduceDeck(deck, pact.Options{FMax: 1e9, Tol: 0.05})
//	fmt.Print(red.Deck)   // reduced SPICE netlist
//
// For matrix-level work (already-partitioned systems), use ReduceSystem,
// which returns the reduced pole/residue model directly.
package pact

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/lanczos"
	"repro/internal/netlist"
	"repro/internal/order"
	"repro/internal/resilience"
	"repro/internal/stamp"
)

// Deck is a parsed SPICE netlist (see internal/netlist for the element
// model).
type Deck = netlist.Deck

// System is a partitioned RC multiport: port blocks A, B, connection
// blocks Q, R and internal blocks D, E.
type System = core.System

// Model is a reduced multiport admittance: Y(s) = A′ + sB′ − Σ s²rᵢᵀrᵢ/(1+sλᵢ).
type Model = core.ReducedModel

// ReduceStats reports the work done by a reduction.
type ReduceStats = core.Stats

// StageTimes is the per-stage wall-time breakdown carried by
// ReduceStats.Stage (parse, stamp, assemble, order, symbolic, factor,
// and for multi-point reductions shift_factor and basis_union).
type StageTimes = core.StageTimes

// Ordering selects the fill-reducing ordering of the internal conductance
// block.
type Ordering = order.Method

// Orderings re-exported for callers.
const (
	MinimumDegree = order.MinimumDegree
	RCM           = order.RCM
	NaturalOrder  = order.Natural
)

// LanczosMode selects the reorthogonalization strategy of the pole
// analysis.
type LanczosMode = lanczos.Mode

// Lanczos modes re-exported for callers.
const (
	Selective  = lanczos.Selective
	FullReorth = lanczos.Full
	NoReorth   = lanczos.None
)

// Parse reads a SPICE deck.
func Parse(r io.Reader) (*Deck, error) { return netlist.Parse(r) }

// ParseString parses a SPICE deck held in a string.
func ParseString(s string) (*Deck, error) { return netlist.ParseString(s) }

// Reduction is the result of a SPICE-in/SPICE-out reduction.
type Reduction struct {
	// Deck is the rewritten netlist: all non-RC elements of the input
	// followed by the realized reduced RC network.
	Deck *Deck
	// Model is the reduced multiport admittance model.
	Model *Model
	// Stats reports the reduction work.
	Stats *ReduceStats
	// PortNames lists the RC network port nodes in model order.
	PortNames []string
	// Sys is the extracted (unreduced) partitioned system, kept so
	// callers can evaluate the exact admittance for verification.
	Sys *System
	// OriginalNodes, OriginalR and OriginalC count the input deck:
	// distinct non-ground node names over all its elements, and the
	// elements whose names start with 'r' and 'c' (the lengths of
	// Deck.NodeNames and Deck.ElementsOfType). They come from the
	// extraction's interning pass, not a second walk of the deck.
	OriginalNodes, OriginalR, OriginalC int
	// ReducedNodes, ReducedR and ReducedC count the output deck the same
	// way, in one pass over it. With AsSubckt the R and C counts include
	// the subcircuit body, and ReducedNodes adds the model's internal
	// nodes, which live inside the subcircuit.
	ReducedNodes, ReducedR, ReducedC int
	// Elapsed is the wall-clock reduction time.
	Elapsed time.Duration
}

// ReduceDeck runs the full RCFIT flow on a deck: extract the RC network
// (ports are nodes touching both RC and non-RC elements, plus
// ExtraPorts), reduce it with PACT, realize the reduced network as R/C
// cards, and reassemble the deck.
func ReduceDeck(deck *Deck, opts Options) (*Reduction, error) {
	return ReduceDeckContext(context.Background(), deck, opts)
}

// ReduceDeckContext is ReduceDeck with cooperative cancellation: the
// reduction observes ctx between work items, so a deadline or Ctrl-C
// interrupts even a large Transform1/Transform2 within one item's
// latency instead of running to completion. Invalid options are rejected
// by Options.Canonical before the extraction starts.
func ReduceDeckContext(ctx context.Context, deck *Deck, opts Options) (*Reduction, error) {
	start := time.Now()
	opts, err := opts.Canonical()
	if err != nil {
		return nil, err
	}
	ex, err := stamp.Extract(deck, opts.ExtraPorts...)
	if err != nil {
		return nil, fmt.Errorf("pact: extract: %w", err)
	}
	model, stats, err := core.ReduceContext(ctx, ex.Sys, opts.coreOptions())
	if err != nil {
		return nil, fmt.Errorf("pact: reduce: %w", err)
	}
	// Fold the front-end stage times (parser and extractor) into the
	// reduction's per-stage accounting next to the ordering/symbolic/
	// factorization times Transform 1 recorded.
	stats.Stage.ParseNs = deck.ParseNs
	stats.Stage.StampNs = ex.StampNs
	stats.Stage.AssembleNs = ex.AssembleNs
	ropts := stamp.RealizeOptions{Prefix: opts.Prefix, SparsifyTol: opts.SparsifyTol}
	out := &netlist.Deck{
		Title:    deck.Title + " (pact reduced)",
		Models:   deck.Models,
		Controls: append([]string(nil), deck.Controls...),
	}
	out.Elements = append(out.Elements, ex.OtherElements...)
	if opts.AsSubckt {
		sub, inst, err := stamp.RealizeSubckt(model, ex.PortNames, ropts)
		if err != nil {
			return nil, fmt.Errorf("pact: realize: %w", err)
		}
		out.Subckts = map[string]*netlist.Subckt{sub.Ident: sub}
		out.Elements = append(out.Elements, inst)
	} else {
		elems, _, err := stamp.Realize(model, ex.PortNames, ropts)
		if err != nil {
			return nil, fmt.Errorf("pact: realize: %w", err)
		}
		out.Elements = append(out.Elements, elems...)
	}

	red := &Reduction{
		Deck:      out,
		Model:     model,
		Stats:     stats,
		PortNames: ex.PortNames,
		Sys:       ex.Sys,
		Elapsed:   time.Since(start),
	}
	red.OriginalNodes, red.OriginalR, red.OriginalC = ex.DeckNodes, ex.DeckR, ex.DeckC
	red.ReducedNodes, red.ReducedR, red.ReducedC = countDeck(out)
	if opts.AsSubckt {
		red.ReducedNodes += model.K() // internal nodes live inside the subckt
	}
	return red, nil
}

// countDeck counts a reduced deck in one pass: distinct non-ground
// nodes of its flat elements (Deck.NodeNames), and the elements whose
// names start with 'r' and 'c' (Deck.ElementsOfType), subcircuit bodies
// included — the flat view of a wrapped reduction sees only its
// instance card.
func countDeck(d *Deck) (nodes, r, c int) {
	seen := map[string]struct{}{}
	count := func(e netlist.Element) {
		if name := e.Name(); name != "" {
			switch name[0] {
			case 'r':
				r++
			case 'c':
				c++
			}
		}
	}
	for _, e := range d.Elements {
		count(e)
		// The realized R and C cards are read in place; Nodes() would
		// build a slice per card.
		switch x := e.(type) {
		case *netlist.Resistor:
			seen[x.N1], seen[x.N2] = struct{}{}, struct{}{}
		case *netlist.Capacitor:
			seen[x.N1], seen[x.N2] = struct{}{}, struct{}{}
		default:
			for _, n := range e.Nodes() {
				seen[n] = struct{}{}
			}
		}
	}
	for _, sub := range d.Subckts {
		for _, e := range sub.Elements {
			count(e)
		}
	}
	delete(seen, netlist.Ground)
	return len(seen), r, c
}

// ReduceString is ReduceDeck on SPICE text, returning the reduced deck as
// text — the complete SPICE-in, SPICE-out pipe.
func ReduceString(spice string, opts Options) (string, *Reduction, error) {
	deck, err := ParseString(spice)
	if err != nil {
		return "", nil, err
	}
	red, err := ReduceDeck(deck, opts)
	if err != nil {
		return "", nil, err
	}
	return red.Deck.String(), red, nil
}

// ReduceSystem reduces an already partitioned system, returning the
// pole/residue model and statistics. This is the matrix-level entry point
// for callers that stamp their own networks.
func ReduceSystem(sys *System, opts Options) (*Model, *ReduceStats, error) {
	return core.Reduce(sys, opts.coreOptions())
}

// ReduceSystemContext is ReduceSystem with cooperative cancellation.
func ReduceSystemContext(ctx context.Context, sys *System, opts Options) (*Model, *ReduceStats, error) {
	return core.ReduceContext(ctx, sys, opts.coreOptions())
}

// Recovery describes one degraded-mode rung that rescued a stage of the
// pipeline; the reduction statistics carry every recovery that happened
// (see ReduceStats.Recoveries).
type Recovery = resilience.Recovery

// IsCancellation reports whether err (anywhere in its chain) is a
// context cancellation or deadline, so callers can distinguish an
// interrupted run from a failed one.
func IsCancellation(err error) bool { return resilience.IsCancellation(err) }

// CutoffFrequency returns the pole-selection cutoff f_c for a maximum
// frequency and tolerance (f_c = 3.04·f_max at 5%).
func CutoffFrequency(fmax, tol float64) float64 { return core.CutoffFrequency(fmax, tol) }

// CMatrix is a dense complex matrix as returned by the Y(s) evaluators.
type CMatrix = dense.CMat

// SParams converts a multiport admittance matrix (from Model.Y or
// System.Y) to scattering parameters with the given real reference
// impedance: S = (I − z0·Y)(I + z0·Y)⁻¹.
func SParams(y *CMatrix, z0 float64) (*CMatrix, error) { return core.SParams(y, z0) }

// VerifyPoint is one sample of a reduction verification sweep.
type VerifyPoint struct {
	Freq   float64 // Hz
	RelErr float64 // max-entry admittance error relative to the matrix scale
}

// Verify samples the reduced multiport admittance against the exact one
// at n log-spaced frequencies from fmax/100 to fmax, returning the
// relative error at each point. It is the "trust but verify" step of the
// RCFIT flow (cmd/rcfit -verify).
func (r *Reduction) Verify(fmax float64, n int) ([]VerifyPoint, error) {
	if r.Sys == nil {
		return nil, fmt.Errorf("pact: reduction carries no system to verify against")
	}
	if n < 1 {
		n = 5
	}
	var out []VerifyPoint
	for i := 0; i < n; i++ {
		f := fmax * math.Pow(100, float64(i)/float64(n-1)-1)
		if n == 1 {
			f = fmax
		}
		s := complex(0, 2*math.Pi*f)
		exact, err := r.Sys.Y(s)
		if err != nil {
			return nil, err
		}
		got := r.Model.Y(s)
		scale := 0.0
		maxd := 0.0
		for k := range exact.Data {
			if a := cmplx.Abs(exact.Data[k]); a > scale {
				scale = a
			}
			if d := cmplx.Abs(got.Data[k] - exact.Data[k]); d > maxd {
				maxd = d
			}
		}
		if scale == 0 {
			scale = 1
		}
		out = append(out, VerifyPoint{Freq: f, RelErr: maxd / scale})
	}
	return out, nil
}
