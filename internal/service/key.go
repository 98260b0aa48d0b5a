// Package service is the reduction-as-a-service layer: a long-running,
// admission-controlled HTTP front end over the PACT pipeline. It turns
// the one-shot ReduceDeck flow into a daemon that survives heavy
// traffic: a bounded worker pool sheds load deterministically when its
// admission queue fills, a content-addressed model cache keyed by
// (canonical netlist SHA-256, tolerance, f_max) makes repeated decks
// free, and singleflight dedup collapses a thundering herd of identical
// decks into one factorization whose result — or typed
// resilience.StageError — every follower observes. Draining is a
// first-class state: on SIGTERM the server stops admitting, finishes
// in-flight reductions under a deadline, and cancels cooperatively past
// it.
//
// The package is stdlib-only and engineered for the fault-injection
// harness: the request path hosts the svc.admit, svc.cache.store and
// svc.flight.leader points of the inject catalog, drilled under
// -race -tags pactcheck.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/netlist"
)

// Params are the reduction parameters that shape the result and
// therefore belong in the cache key: two requests with equal canonical
// decks and equal Params must produce byte-identical reduced decks.
type Params struct {
	// FMax is the maximum frequency of interest in Hz (required).
	FMax float64
	// Tol is the relative error tolerance at FMax (0 = the pipeline
	// default of 5%).
	Tol float64
	// MaxPoles caps the retained poles (0 = no cap).
	MaxPoles int
	// Shifts selects multi-expansion-point reduction (Hz). The slice is
	// canonicalized (sorted, deduplicated) before keying, so listing
	// order never splits cache entries for the same expansion-point set.
	Shifts []float64
	// PortClusters enables TurboMOR-style port clustering of the
	// multi-point basis union (0 disables).
	PortClusters int
}

// id renders the parameters exactly: floats in hex form, so two Params
// collide only when they are bit-equal and no decimal rounding can
// alias distinct tolerances onto one key.
func (p Params) id() string {
	s := "fmax=" + strconv.FormatFloat(p.FMax, 'x', -1, 64) +
		";tol=" + strconv.FormatFloat(p.Tol, 'x', -1, 64) +
		";maxpoles=" + strconv.Itoa(p.MaxPoles)
	if len(p.Shifts) > 0 {
		s += ";shifts="
		for i, f := range p.Shifts {
			if i > 0 {
				s += ","
			}
			s += strconv.FormatFloat(f, 'x', -1, 64)
		}
	}
	if p.PortClusters > 0 {
		s += ";portcluster=" + strconv.Itoa(p.PortClusters)
	}
	return s
}

// Canonicalize renders a parsed deck in the repository's canonical SPICE
// form: comments dropped, whitespace collapsed, element values in the
// bit-exact engineering notation of netlist.FormatValue, models and
// subcircuits in sorted order. Two source texts that differ only in
// comments or spacing canonicalize identically, and the form is a fixed
// point: parsing canonical text and canonicalizing again reproduces it
// byte for byte (pinned by TestCanonicalizeRoundTrip).
func Canonicalize(deck *netlist.Deck) string { return deck.String() }

// RawKey is the content hash of the request exactly as received: the
// SHA-256 of the raw deck bytes plus the exact parameters. It
// distinguishes texts that canonicalize identically, so it is not the
// cache key. It is an alias into the cache: the raw key of the request
// whose reduction stored an entry resolves to that entry, so a repeat of
// the same bytes is answered without parsing. Bytes never parsed never
// resolve.
func RawKey(raw []byte, p Params) string {
	h := sha256.New()
	h.Write(raw)
	h.Write([]byte{0})
	h.Write([]byte(p.id()))
	return hex.EncodeToString(h.Sum(nil))
}

// CanonicalKey is the cache key: the SHA-256 of the canonicalized deck
// plus the exact parameters. Decks differing only in comments or
// whitespace share a canonical key and therefore share one cache entry
// and one singleflight.
//
// The canonical form is streamed into the hash rather than rendered to a
// string first; the key equals the SHA-256 of Canonicalize(deck)
// followed by the same separator and parameters (pinned by
// TestCanonicalKeyStreamsCanonicalForm).
func CanonicalKey(deck *netlist.Deck, p Params) string {
	h := sha256.New()
	//lint:ignore checkerr a hash.Hash's Write never returns an error, so neither does the Flush that ends deck.Write
	_ = deck.Write(h)
	h.Write([]byte{0})
	h.Write([]byte(p.id()))
	return hex.EncodeToString(h.Sum(nil))
}

// shortKey abbreviates a hex key for error detail and log lines.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// validate rejects parameter combinations the pipeline would reject
// later, so admission-layer errors are cheap and typed.
func (p Params) validate() error {
	if p.FMax <= 0 {
		return fmt.Errorf("service: fmax is required and must be positive, got %g", p.FMax)
	}
	if p.Tol < 0 || p.Tol >= 1 {
		return fmt.Errorf("service: tol %g outside [0,1)", p.Tol)
	}
	if p.MaxPoles < 0 {
		return fmt.Errorf("service: maxpoles %d negative", p.MaxPoles)
	}
	if p.PortClusters < 0 {
		return fmt.Errorf("service: portcluster %d negative", p.PortClusters)
	}
	if p.PortClusters > 0 && len(p.Shifts) == 0 {
		return fmt.Errorf("service: portcluster requires a multi-point shift set")
	}
	return nil
}

// canonicalizeShifts rewrites the shift set into its canonical form so
// that every listing order of the same expansion points shares one
// cache key and one singleflight; it surfaces the pipeline's own
// validation error for out-of-range entries.
func (p *Params) canonicalizeShifts() error {
	if len(p.Shifts) == 0 {
		p.Shifts = nil
		return nil
	}
	cs, err := core.CanonicalShifts(p.Shifts)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	p.Shifts = cs
	return nil
}
