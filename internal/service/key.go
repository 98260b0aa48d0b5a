// Package service is the reduction-as-a-service layer: a long-running,
// admission-controlled HTTP front end over the PACT pipeline. It turns
// the one-shot ReduceDeck flow into a daemon that survives heavy
// traffic: a bounded worker pool sheds load deterministically when its
// admission queue fills, a content-addressed model cache keyed by the
// canonical netlist and the canonical pact.Options makes repeated decks
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

	pact "repro"
	"repro/internal/netlist"
)

// Canonicalize renders a parsed deck in the repository's canonical SPICE
// form: comments dropped, whitespace collapsed, element values in the
// bit-exact engineering notation of netlist.FormatValue, models and
// subcircuits in sorted order. Two source texts that differ only in
// comments or spacing canonicalize identically, and the form is a fixed
// point: parsing canonical text and canonicalizing again reproduces it
// byte for byte (pinned by TestCanonicalizeRoundTrip).
func Canonicalize(deck *netlist.Deck) string { return deck.String() }

// RawKey is the content hash of the request exactly as received: the
// SHA-256 of the raw deck bytes plus the (canonical) options' Key. It
// distinguishes texts that canonicalize identically, so it is not the
// cache key. It is an alias into the cache: the raw key of the request
// whose reduction stored an entry resolves to that entry, so a repeat of
// the same bytes is answered without parsing. Bytes never parsed never
// resolve.
func RawKey(raw []byte, opts pact.Options) string {
	h := sha256.New()
	h.Write(raw)
	h.Write([]byte{0})
	h.Write([]byte(opts.Key()))
	return hex.EncodeToString(h.Sum(nil))
}

// CanonicalKey is the cache key: the SHA-256 of the canonicalized deck
// plus the options' Key. Decks differing only in comments or
// whitespace share a canonical key and therefore share one cache entry
// and one singleflight.
//
// The canonical form is streamed into the hash rather than rendered to a
// string first; the key equals the SHA-256 of Canonicalize(deck)
// followed by the same separator and options key (pinned by
// TestCanonicalKeyStreamsCanonicalForm).
func CanonicalKey(deck *netlist.Deck, opts pact.Options) string {
	h := sha256.New()
	//lint:ignore checkerr a hash.Hash's Write never returns an error, so neither does the Flush that ends deck.Write
	_ = deck.Write(h)
	h.Write([]byte{0})
	h.Write([]byte(opts.Key()))
	return hex.EncodeToString(h.Sum(nil))
}

// shortKey abbreviates a hex key for error detail and log lines.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
