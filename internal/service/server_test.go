package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pact "repro"
	"repro/internal/netgen"
	"repro/internal/netlist"
)

// post sends deck to the in-process server and decodes the response.
func post(t *testing.T, s *Server, deck, query string) (int, http.Header, *ReduceResponse, *errorResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/reduce?"+query, strings.NewReader(deck))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code == http.StatusOK {
		var out ReduceResponse
		if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return rec.Code, rec.Header(), &out, nil
	}
	var eresp errorResponse
	if err := json.NewDecoder(rec.Body).Decode(&eresp); err != nil {
		t.Fatalf("decode error body (%d): %v", rec.Code, err)
	}
	return rec.Code, rec.Header(), nil, &eresp
}

func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

// TestReduceMissThenHit drives the real pipeline end to end: the first
// request pays a reduction and reports a miss, an equivalent deck with
// different comments/whitespace reports a hit with a byte-identical
// reduced deck, and /statz reflects both.
func TestReduceMissThenHit(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ladder := netgen.Ladder(60, 250, 1.35e-12).String()
	code, _, first, _ := post(t, s, ladder, "fmax=5e9")
	if code != http.StatusOK {
		t.Fatalf("first POST: %d", code)
	}
	if first.Cache != "miss" {
		t.Fatalf("first request cache = %q, want miss", first.Cache)
	}
	if first.Poles < 1 || !strings.Contains(first.Deck, ".end") {
		t.Fatalf("implausible reduction: %d poles, deck %q...", first.Poles, first.Deck[:min(len(first.Deck), 60)])
	}
	// Same circuit, different bytes: comments and spacing.
	noisy := strings.Replace(ladder, "\n", "\n* a comment\n", 1)
	code, _, second, _ := post(t, s, noisy, "fmax=5e9")
	if code != http.StatusOK {
		t.Fatalf("second POST: %d", code)
	}
	if second.Cache != "hit" {
		t.Fatalf("second request cache = %q, want hit", second.Cache)
	}
	if second.Deck != first.Deck {
		t.Fatal("cache hit returned a different reduced deck")
	}
	if second.Key != first.Key {
		t.Fatal("equivalent decks got different canonical keys")
	}
	if second.RawKey == first.RawKey {
		t.Fatal("different source bytes got the same raw key")
	}
	st := s.Snapshot()
	if st.Completed != 2 || st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("stats %+v, want 2 completed, 1 hit, 1 miss", st)
	}
	if st.WorkspacePeakBytes < 0 || st.Flights.Leaders != 1 {
		t.Fatalf("stats %+v, want 1 flight leader", st)
	}
	// A different tolerance is a different content address: miss again.
	code, _, third, _ := post(t, s, ladder, "fmax=5e9&tol=0.01")
	if code != http.StatusOK || third.Cache != "miss" {
		t.Fatalf("tol change: %d cache=%v, want 200 miss", code, third)
	}
}

// postRaw sends deck to the in-process server and returns the status
// and the response body exactly as written.
func postRaw(s *Server, deck, query string) (int, string) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reduce?"+query, strings.NewReader(deck)))
	return rec.Code, rec.Body.String()
}

// aliasCount reads the size of the cache's raw-key alias index.
func aliasCount(s *Server) int {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return len(s.cache.byRaw)
}

// TestRawAliasHitMatchesCanonicalHit drives the alias index end to end:
// the store that caches a deck aliases its bytes, so a repeat is a raw
// hit; with the alias dropped the same bytes take the canonical path,
// and the two response bodies are byte-identical. A comment variant is
// never aliased — only a store records an alias — so it is a canonical
// hit on every repeat.
func TestRawAliasHitMatchesCanonicalHit(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ladder := netgen.Ladder(60, 250, 1.35e-12).String()
	if code, _, first, _ := post(t, s, ladder, "fmax=5e9"); code != http.StatusOK || first.Cache != "miss" {
		t.Fatalf("first POST: %d %+v, want 200 miss", code, first)
	}
	code, rawHit := postRaw(s, ladder, "fmax=5e9")
	if code != http.StatusOK || !strings.Contains(rawHit, `"cache":"hit"`) || s.Snapshot().Cache.RawHits != 1 {
		t.Fatalf("repeat POST: %d %.80s, want 200 raw hit", code, rawHit)
	}
	s.cache.mu.Lock()
	clear(s.cache.byRaw)
	s.cache.mu.Unlock()
	code, canonHit := postRaw(s, ladder, "fmax=5e9")
	if code != http.StatusOK || !strings.Contains(canonHit, `"cache":"hit"`) || s.Snapshot().Cache.RawHits != 1 {
		t.Fatalf("POST without alias: %d %.80s, want 200 canonical hit", code, canonHit)
	}
	if rawHit != canonHit {
		t.Fatalf("alias hit body differs from the canonical hit's:\n%s\nvs\n%s", rawHit, canonHit)
	}
	variant := strings.Replace(ladder, "\n", "\n* a comment line\n", 1)
	for i := 0; i < 2; i++ {
		if code, _, v, _ := post(t, s, variant, "fmax=5e9"); code != http.StatusOK || v.Cache != "hit" {
			t.Fatalf("variant POST %d: %d %+v, want 200 hit", i, code, v)
		}
	}
	st := s.Snapshot()
	if st.Cache.Hits != 4 || st.Cache.RawHits != 1 || st.Cache.Misses != 1 || aliasCount(s) != 0 {
		t.Fatalf("cache %+v with %d aliases, want 4 hits (1 raw), 1 miss, 0 aliases", st.Cache, aliasCount(s))
	}
}

// TestNoRawAliasWithoutResult pins that only bytes which parsed to a
// cached result get an alias: a deck that fails to parse and a deck
// whose reduction fails are parsed (and, for the latter, reduced) again
// on every repeat.
func TestNoRawAliasWithoutResult(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	var reductions int
	s.reduceFn = func(ctx context.Context, deck *netlist.Deck, opts pact.Options) (*Result, error) {
		reductions++
		return nil, errors.New("reduction failed")
	}
	for i := 0; i < 2; i++ {
		if code, _, _, _ := post(t, s, "t\nz1 bogus\n.end\n", "fmax=1e9"); code != http.StatusBadRequest {
			t.Fatalf("bad deck POST %d: %d, want 400", i, code)
		}
		if code, _, _, _ := post(t, s, tinyDeck("d0"), "fmax=1e9"); code != http.StatusInternalServerError {
			t.Fatalf("failing deck POST %d: %d, want 500", i, code)
		}
	}
	if reductions != 2 || aliasCount(s) != 0 {
		t.Fatalf("%d reductions and %d aliases, want 2 and 0", reductions, aliasCount(s))
	}
	if st := s.Snapshot(); st.Cache.Misses != 2 || st.Cache.Hits != 0 {
		t.Fatalf("cache %+v, want 2 misses (the failing deck's) and no hits", st.Cache)
	}
}

// TestCacheLookupsExactUnderConcurrentTraffic sends a mix of repeated
// decks, comment variants and unparsable decks from several goroutines
// and requires every parsed-or-aliased request to be counted exactly
// once: hits plus misses equal the requests that reached the cache,
// with raw hits a subset of hits.
func TestCacheLookupsExactUnderConcurrentTraffic(t *testing.T) {
	s, _, release := slowServer(Config{Workers: 2, QueueDepth: 64})
	close(release)
	defer s.Close()
	var decks []string
	for d := 0; d < 3; d++ {
		deck := tinyDeck(fmt.Sprintf("d%d", d))
		decks = append(decks, deck, strings.Replace(deck, "\n", "\n* variant\n", 1))
	}
	const clients, perClient = 8, 40
	var wg sync.WaitGroup
	var valid, bad atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				deck, want := decks[(c+i)%len(decks)], http.StatusOK
				if (c*perClient+i)%7 == 0 {
					deck, want = "t\nz1 bogus\n.end\n", http.StatusBadRequest
				}
				code, _ := postRaw(s, deck, "fmax=1e9")
				if code != want {
					t.Errorf("client %d request %d: %d, want %d", c, i, code, want)
				}
				if want == http.StatusOK {
					valid.Add(1)
				} else {
					bad.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	st := s.Snapshot()
	if got := st.Cache.Hits + st.Cache.Misses; got != valid.Load() || st.Completed != valid.Load() {
		t.Fatalf("hits %d + misses %d = %d, completed %d, want %d each (%d bad requests)",
			st.Cache.Hits, st.Cache.Misses, got, st.Completed, valid.Load(), bad.Load())
	}
	if st.Cache.RawHits < 1 || st.Cache.RawHits > st.Cache.Hits {
		t.Fatalf("raw hits %d, want between 1 and hits %d", st.Cache.RawHits, st.Cache.Hits)
	}
}

// TestReduceMultiPointSharesCacheAcrossShiftOrder drives the multi-point
// request path end to end: the reduction succeeds with a shift set and
// port clustering, and a permuted spelling of the same shift set is a
// cache hit — the CanonicalShifts contract observed at the HTTP surface.
func TestReduceMultiPointSharesCacheAcrossShiftOrder(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ladder := netgen.Ladder(60, 250, 1.35e-12).String()
	code, _, first, _ := post(t, s, ladder, "fmax=5e9&shifts=0,1e9,5e9&portcluster=2")
	if code != http.StatusOK {
		t.Fatalf("multi-point POST: %d", code)
	}
	if first.Cache != "miss" || first.Poles < 1 {
		t.Fatalf("implausible multi-point reduction: cache %q, %d poles", first.Cache, first.Poles)
	}
	code, _, second, _ := post(t, s, ladder, "fmax=5e9&shifts=5e9,0,1e9,0&portcluster=2")
	if code != http.StatusOK || second.Cache != "hit" {
		t.Fatalf("permuted shift set: %d cache=%q, want 200 hit", code, second.Cache)
	}
	if second.Deck != first.Deck {
		t.Fatal("permuted shift set returned a different reduced deck")
	}
	// Single-point remains a distinct content address.
	code, _, third, _ := post(t, s, ladder, "fmax=5e9")
	if code != http.StatusOK || third.Cache != "miss" {
		t.Fatalf("single-point after multi-point: %d cache=%v, want 200 miss", code, third)
	}
}

// TestStatzStageTotalsIncludeMultiPoint: a multi-point reduction's
// shifted-factorization and basis-union stages must reach the /statz
// stage totals, beside the single-point stages.
func TestStatzStageTotalsIncludeMultiPoint(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ladder := netgen.Ladder(60, 250, 1.35e-12).String()
	if code, _, _, _ := post(t, s, ladder, "fmax=5e9&shifts=0,1e9,5e9&portcluster=2"); code != http.StatusOK {
		t.Fatalf("multi-point POST: %d", code)
	}
	code, body := get(t, s, "/statz")
	if code != http.StatusOK {
		t.Fatalf("statz: %d", code)
	}
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("statz JSON: %v\n%s", err, body)
	}
	tot := st.StageTotals
	if tot.ShiftFactorNs <= 0 || tot.BasisUnionNs <= 0 || tot.FactorNs <= 0 {
		t.Fatalf("stage totals %+v: want non-zero factor, shift_factor and basis_union", tot)
	}
}

func TestReduceRejectsBadRequests(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ladder := netgen.Ladder(10, 250, 1e-12).String()
	for _, tc := range []struct {
		deck, query string
		want        int
	}{
		{ladder, "", http.StatusBadRequest},               // missing fmax
		{ladder, "fmax=abc", http.StatusBadRequest},       // unparsable fmax
		{ladder, "fmax=1e9&tol=2", http.StatusBadRequest}, // tol out of range
		{ladder, "fmax=1e9&maxpoles=x", http.StatusBadRequest},
		{ladder, "fmax=1e9&shifts=0,zap", http.StatusBadRequest},  // unparsable shift
		{ladder, "fmax=1e9&shifts=-1e9", http.StatusBadRequest},   // negative shift
		{ladder, "fmax=1e9&portcluster=4", http.StatusBadRequest}, // clustering without shifts
		{ladder, "fmax=1e9&shifts=0,1e9&portcluster=-1", http.StatusBadRequest},
		{"t\nz1 bogus\n.end\n", "fmax=1e9", http.StatusBadRequest}, // bad deck
	} {
		code, _, _, eresp := post(t, s, tc.deck, tc.query)
		if code != tc.want {
			t.Errorf("query %q: code %d, want %d", tc.query, code, tc.want)
		}
		if eresp == nil || eresp.Error == "" {
			t.Errorf("query %q: empty error body", tc.query)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/reduce?fmax=1e9", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /reduce: %d, want 405", rec.Code)
	}
}

// TestReduceRejectsBadOptionsBeforeParsing sends non-finite, out-of-range,
// unknown and repeated query parameters. Each is a 400 whose error names
// the parameter, and none reaches the parser or the cache.
func TestReduceRejectsBadOptionsBeforeParsing(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ladder := netgen.Ladder(10, 250, 1e-12).String()
	for _, tc := range []struct{ query, names string }{
		{"fmax=NaN", "FMax"},
		{"fmax=Inf", "FMax"},
		{"fmax=5e9&tol=NaN", "Tol"},
		{"fmax=5e9&sparsify=-1", "SparsifyTol"},
		{"fmax=5e9&sparsify=Inf", "SparsifyTol"},
		{"fmax=5e9&prefix=" + url.QueryEscape("x 1\nv9 a 0 1"), "Prefix"},
		{"fmax=5e9&maxpole=1", `"maxpole"`},
		{"fmax=5e9&fmax=6e9", `"fmax"`},
		{"fmax=5e9&twopass=maybe", "twopass"},
	} {
		code, _, _, eresp := post(t, s, ladder, tc.query)
		if code != http.StatusBadRequest {
			t.Errorf("query %q: code %d, want 400", tc.query, code)
			continue
		}
		if !strings.Contains(eresp.Error, tc.names) {
			t.Errorf("query %q: error %q does not name %s", tc.query, eresp.Error, tc.names)
		}
	}
	if st := s.Snapshot(); st.Cache.Hits+st.Cache.Misses != 0 {
		t.Fatalf("cache %+v: a rejected request reached the cache", st.Cache)
	}
}

// TestDefaultSpellingsShareOneEntry pins that the options are keyed after
// canonicalization: spelling out a default, listing extra ports in
// another case and order, or naming a switch false addresses the same
// cache entry as leaving it out, while a real option change is a miss.
func TestDefaultSpellingsShareOneEntry(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ladder := netgen.Ladder(60, 250, 1.35e-12).String()
	_, _, first, _ := post(t, s, ladder, "fmax=5e9&ports=n3,n2")
	if first == nil || first.Cache != "miss" {
		t.Fatalf("first request: %+v, want a miss", first)
	}
	for _, q := range []string{
		"fmax=5e9&tol=0.05&ports=n2,n3",
		"ports=N2,n3,n2&fmax=5e9&prefix=pact&sparsify=0&maxpoles=0&twopass=false&subckt=0",
	} {
		code, _, got, _ := post(t, s, ladder, q)
		if code != http.StatusOK || got.Cache != "hit" || got.Key != first.Key {
			t.Fatalf("query %q: %d %+v, want a hit on key %s", q, code, got, first.Key)
		}
	}
	_, _, sparse, _ := post(t, s, ladder, "fmax=5e9&ports=n3,n2&sparsify=0.5")
	if sparse == nil || sparse.Cache != "miss" {
		t.Fatalf("sparsify=0.5: %+v, want a miss", sparse)
	}
	if st := s.Snapshot(); st.Cache.Misses != 2 || st.Cache.Entries != 2 {
		t.Fatalf("cache %+v, want 2 misses and 2 entries", st.Cache)
	}
}

// slowServer returns a server whose reductions block until release is
// closed (or the reduction context is canceled), so tests control
// exactly what is in flight.
func slowServer(cfg Config) (s *Server, started chan string, release chan struct{}) {
	s = New(cfg)
	started = make(chan string, 64)
	release = make(chan struct{})
	s.reduceFn = func(ctx context.Context, deck *netlist.Deck, opts pact.Options) (*Result, error) {
		started <- deck.Title
		select {
		case <-release:
			return &Result{Deck: "reduced " + deck.Title, Poles: 1, ScratchBytes: 1 << 20}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s, started, release
}

func tinyDeck(title string) string {
	return title + "\nr1 a b 100\nc1 b 0 1p\nr2 b c 100\n.end\n"
}

// TestAdmissionShedsDeterministically fills the one-worker,
// depth-2 queue and asserts the exact overflow request is shed with 429
// and a Retry-After header while the queued ones are served.
func TestAdmissionShedsDeterministically(t *testing.T) {
	s, started, release := slowServer(Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	defer close(release)

	codes := make(chan int, 8)
	postAsync := func(title string) {
		go func() {
			code, _, _, _ := post(t, s, tinyDeck(title), "fmax=1e9")
			codes <- code
		}()
	}
	// d0 occupies the worker.
	postAsync("d0")
	<-started
	// d1, d2 fill the queue; wait until both are parked on the semaphore.
	postAsync("d1")
	postAsync("d2")
	waitFor(t, func() bool { return s.Snapshot().QueueDepth == 2 })
	// d3 must be shed: queue is at its limit.
	code, hdr, _, eresp := post(t, s, tinyDeck("d3"), "fmax=1e9")
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	if eresp == nil || !strings.Contains(eresp.Error, "admission queue full") {
		t.Fatalf("429 body %+v does not name the shed", eresp)
	}
	if st := s.Snapshot(); st.Shed != 1 {
		t.Fatalf("shed counter %d, want 1", st.Shed)
	}
}

// TestRequestTimeoutIsTypedAndLadderFree pins the deadline path: a
// reduction that overruns RequestTimeout is canceled cooperatively,
// reported 504, counted as a timeout — and because cancellation is
// typed, no recovery ladder fires spuriously on the way down.
func TestRequestTimeoutIsTypedAndLadderFree(t *testing.T) {
	s := New(Config{Workers: 1, RequestTimeout: 20 * time.Millisecond})
	defer s.Close()
	// The real pipeline on a deck large enough to overrun 20ms.
	deck := netgen.Ladder(20000, 250, 1.35e-12).String()
	code, _, ok, eresp := post(t, s, deck, "fmax=5e9")
	if code == http.StatusOK {
		t.Skipf("reduction finished before the deadline on this machine: %+v", ok)
	}
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out reduction: %d (%+v), want 504", code, eresp)
	}
	st := s.Snapshot()
	if st.Timeouts != 1 || st.Degraded != 0 {
		t.Fatalf("stats %+v, want 1 timeout and 0 degraded (no spurious ladder)", st)
	}
}

// TestDrainGraceful pins the drain state machine: after BeginDrain the
// health endpoint degrades and new work is refused 503, in-flight work
// finishes, and Drain returns nil.
func TestDrainGraceful(t *testing.T) {
	s, started, release := slowServer(Config{Workers: 1})
	var done sync.WaitGroup
	done.Add(1)
	var inflightCode int
	go func() {
		defer done.Done()
		inflightCode, _, _, _ = post(t, s, tinyDeck("d0"), "fmax=1e9")
	}()
	<-started

	s.BeginDrain()
	if code, body := get(t, s, "/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining healthz: %d %q", code, body)
	}
	if code, _, _, _ := post(t, s, tinyDeck("d1"), "fmax=1e9"); code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: %d, want 503", code)
	}
	close(release)
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("graceful drain errored: %v", err)
	}
	done.Wait()
	if inflightCode != http.StatusOK {
		t.Fatalf("in-flight request finished %d, want 200", inflightCode)
	}
}

// TestDrainDeadlineCancels pins the forced path: a reduction that will
// not finish is canceled through the pipeline's context when the drain
// deadline expires, and Drain reports how many it killed.
func TestDrainDeadlineCancels(t *testing.T) {
	s, started, release := slowServer(Config{Workers: 1})
	defer close(release)
	var done sync.WaitGroup
	done.Add(1)
	var code int
	go func() {
		defer done.Done()
		code, _, _, _ = post(t, s, tinyDeck("stuck"), "fmax=1e9")
	}()
	<-started
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := s.Drain(drainCtx)
	if err == nil || !strings.Contains(err.Error(), "canceled 1 in-flight") {
		t.Fatalf("forced drain err = %v, want the canceled-count report", err)
	}
	done.Wait()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("canceled request finished %d, want 503", code)
	}
}

// TestHealthzAndStatz smoke-tests the observability endpoints.
func TestHealthzAndStatz(t *testing.T) {
	s := New(Config{Workers: 3, QueueDepth: 7})
	defer s.Close()
	if code, body := get(t, s, "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	code, body := get(t, s, "/statz")
	if code != http.StatusOK {
		t.Fatalf("statz: %d", code)
	}
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("statz JSON: %v\n%s", err, body)
	}
	if st.Workers != 3 || st.QueueLimit != 7 || st.Draining {
		t.Fatalf("statz %+v, want workers 3, queue 7, not draining", st)
	}
}

// waitFor polls cond until it holds or a generous deadline expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition did not hold within 10s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}
