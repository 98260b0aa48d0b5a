//go:build pactcheck

// Request-level fault drills for the service's three injection points
// (svc.admit, svc.cache.store, svc.flight.leader), run under
// -race -tags pactcheck by the check.sh service leg. Every drill
// leak-checks its goroutines: a follower left hanging on a dead flight
// would show up here long before it wedged a production drain.
package service

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/resilience/inject"
)

// checkNoGoroutineLeak waits for the goroutine count to return to the
// baseline captured before the drill.
func checkNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d live, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInjectedAdmitShedIs429 drives svc.admit: an armed admission
// failure sheds the request with 429 + Retry-After exactly as a full
// queue would, even though the pool is idle.
func TestInjectedAdmitShedIs429(t *testing.T) {
	base := runtime.NumGoroutine()
	s, _, release := slowServer(Config{Workers: 2})
	close(release) // reductions return immediately
	defer s.Close()
	sched := inject.NewSchedule().Arm(inject.SvcAdmit, 0)
	inject.Install(sched)
	defer inject.Reset()

	code, hdr, _, eresp := post(t, s, tinyDeck("d0"), "fmax=1e9")
	if code != http.StatusTooManyRequests {
		t.Fatalf("injected shed: %d (%+v), want 429", code, eresp)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("injected shed missing Retry-After")
	}
	if eresp.Stage != string(resilience.StageService) {
		t.Fatalf("injected shed stage %q, want %s", eresp.Stage, resilience.StageService)
	}
	if sched.Fired(inject.SvcAdmit) != 1 {
		t.Fatal("svc.admit did not fire")
	}
	if st := s.Snapshot(); st.Shed != 1 || st.Completed != 0 {
		t.Fatalf("stats %+v, want exactly one shed", st)
	}
	// The very next request (admission index 1, unarmed) must be served.
	if code, _, resp, _ := post(t, s, tinyDeck("d0"), "fmax=1e9"); code != http.StatusOK || resp.Cache != "miss" {
		t.Fatalf("request after shed: %d %+v, want 200 miss", code, resp)
	}
	checkNoGoroutineLeak(t, base)
}

// TestInjectedCacheStoreDropStaysConsistent drives svc.cache.store: a
// dropped store must cost only a re-reduction on the next identical
// request — never serve a corrupt or phantom entry.
func TestInjectedCacheStoreDropStaysConsistent(t *testing.T) {
	base := runtime.NumGoroutine()
	s, _, release := slowServer(Config{Workers: 2})
	close(release)
	defer s.Close()
	sched := inject.NewSchedule().Arm(inject.SvcCacheStore, 0)
	inject.Install(sched)
	defer inject.Reset()

	// Store 0 is dropped and must leave no raw-key alias behind; store 1
	// lands with the alias that answers request 2 without parsing.
	want := []string{"miss", "miss", "hit"}
	wantAliases := []int{0, 1, 1}
	for i, w := range want {
		code, _, resp, eresp := post(t, s, tinyDeck("d0"), "fmax=1e9")
		if code != http.StatusOK {
			t.Fatalf("request %d: %d (%+v)", i, code, eresp)
		}
		if resp.Cache != w {
			t.Fatalf("request %d cache = %q, want %q", i, resp.Cache, w)
		}
		if n := aliasCount(s); n != wantAliases[i] {
			t.Fatalf("after request %d: %d raw-key aliases, want %d", i, n, wantAliases[i])
		}
	}
	if sched.Fired(inject.SvcCacheStore) != 1 {
		t.Fatal("svc.cache.store did not fire")
	}
	st := s.Snapshot()
	if st.Cache.StoreDrops != 1 || st.Cache.Stores != 1 || st.Cache.Hits != 1 || st.Cache.RawHits != 1 {
		t.Fatalf("cache stats %+v, want 1 drop, 1 store, 1 hit (raw)", st.Cache)
	}
	checkNoGoroutineLeak(t, base)
}

// herdResponse carries one request's outcome out of its goroutine.
type herdResponse struct {
	code int
	body string // "cache deck" on success, "stage: error" on failure
}

// herd stages the canonical drill topology on a one-worker server: a
// blocker deck occupies the worker, a leader for deck X queues behind
// it (flight open, mid-flight once the blocker finishes), and nFollow
// followers park on X's flight. It returns once every follower is
// registered; closing release then lets the blocker finish and the
// leader reach the armed svc.flight.leader point with the herd watching.
func herd(t *testing.T, s *Server, started chan string, nFollow int) chan herdResponse {
	t.Helper()
	out := make(chan herdResponse, nFollow+2)
	postAsync := func(title string) {
		go func() {
			code, _, resp, eresp := post(t, s, tinyDeck(title), "fmax=1e9")
			switch {
			case resp != nil:
				out <- herdResponse{code, resp.Cache + " " + resp.Deck}
			case eresp != nil:
				out <- herdResponse{code, eresp.Stage + ": " + eresp.Error}
			default:
				out <- herdResponse{code, "(no body)"}
			}
		}()
	}
	postAsync("blocker")
	if got := <-started; got != "blocker" {
		t.Fatalf("first reduction is %q, want blocker", got)
	}
	postAsync("x") // flight leader for deck x; parks on the semaphore
	waitFor(t, func() bool { return s.Snapshot().QueueDepth == 1 })
	for i := 0; i < nFollow; i++ {
		postAsync("x")
	}
	waitFor(t, func() bool { return s.Snapshot().Flights.Followers >= int64(nFollow) })
	return out
}

// collect drains n herd responses or fails the test on a hang.
func collect(t *testing.T, out chan herdResponse, n int) []herdResponse {
	t.Helper()
	got := make([]herdResponse, 0, n)
	for i := 0; i < n; i++ {
		select {
		case r := <-out:
			got = append(got, r)
		case <-time.After(30 * time.Second):
			t.Fatalf("request hung: only %d of %d responses arrived", i, n)
		}
	}
	return got
}

// TestInjectedLeaderFaultSharesTypedErrorWithFollowers is the
// acceptance drill: svc.flight.leader armed on deck X's flight makes
// the leader fail with a typed StageError, and every parked follower
// observes the very same typed failure — same stage, same message — no
// hang, no goroutine leak, no retry storm.
func TestInjectedLeaderFaultSharesTypedErrorWithFollowers(t *testing.T) {
	base := runtime.NumGoroutine()
	const nFollow = 6
	s, started, release := slowServer(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	sched := inject.NewSchedule().Arm(inject.SvcFlightLeader, 1) // flight 0 = blocker, 1 = x
	inject.Install(sched)
	defer inject.Reset()

	out := herd(t, s, started, nFollow)
	close(release)

	var failures []string
	okCount := 0
	for _, r := range collect(t, out, nFollow+2) {
		switch r.code {
		case http.StatusOK:
			okCount++
		case http.StatusInternalServerError:
			failures = append(failures, r.body)
		default:
			t.Fatalf("unexpected status %d (%s)", r.code, r.body)
		}
	}
	if okCount != 1 { // only the blocker succeeds
		t.Fatalf("%d requests succeeded, want 1 (the blocker)", okCount)
	}
	if len(failures) != nFollow+1 {
		t.Fatalf("%d failures, want leader + %d followers", len(failures), nFollow)
	}
	for i, f := range failures {
		if f != failures[0] {
			t.Fatalf("failure %d differs from the leader's:\n%s\nvs\n%s", i, f, failures[0])
		}
		if !strings.HasPrefix(f, string(resilience.StageService)) {
			t.Fatalf("failure %d not typed with the service stage: %s", i, f)
		}
		if !strings.Contains(f, "injected leader fault") {
			t.Fatalf("failure %d does not carry the leader's cause: %s", i, f)
		}
	}
	if sched.Fired(inject.SvcFlightLeader) != 1 {
		t.Fatal("svc.flight.leader did not fire exactly once")
	}
	if st := s.Snapshot(); st.Flights.Followers < nFollow || st.Flights.Crashes != 0 {
		t.Fatalf("flight stats %+v, want >=%d followers and no crashes", st.Flights, nFollow)
	}
	checkNoGoroutineLeak(t, base)
}

// TestInjectedLeaderCrashFailsOverFollowers arms svc.flight.leader with
// a panicking func: the leader crashes mid-flight. The crash must be
// contained (500 for the leader, daemon alive), and every follower must
// fail over to a fresh attempt and be served — never hang.
func TestInjectedLeaderCrashFailsOverFollowers(t *testing.T) {
	base := runtime.NumGoroutine()
	const nFollow = 6
	s, started, release := slowServer(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	sched := inject.NewSchedule().ArmFunc(inject.SvcFlightLeader, 1, func() {
		panic("drill: svc.flight.leader crash")
	})
	inject.Install(sched)
	defer inject.Reset()

	out := herd(t, s, started, nFollow)
	close(release)

	okCount, crashCount := 0, 0
	for _, r := range collect(t, out, nFollow+2) {
		switch {
		case r.code == http.StatusOK:
			okCount++
		case r.code == http.StatusInternalServerError && strings.Contains(r.body, "leader crashed"):
			crashCount++
		default:
			t.Fatalf("unexpected response %d (%s)", r.code, r.body)
		}
	}
	// The blocker and every follower get real results; only the crashed
	// leader reports the contained panic.
	if crashCount != 1 || okCount != nFollow+1 {
		t.Fatalf("ok=%d crash=%d, want ok=%d crash=1", okCount, crashCount, nFollow+1)
	}
	st := s.Snapshot()
	if st.Flights.Crashes != 1 || st.Flights.Failovers < 1 {
		t.Fatalf("flight stats %+v, want 1 crash and >=1 failover", st.Flights)
	}
	// The daemon is still serving after the contained crash.
	if code, _, resp, _ := post(t, s, tinyDeck("x"), "fmax=1e9"); code != http.StatusOK || resp.Cache != "hit" {
		t.Fatalf("post-crash request: %d %+v, want 200 hit from the failover's store", code, resp)
	}
	checkNoGoroutineLeak(t, base)
}

// TestInjectedLeaderFaultDoesNotPoisonCache verifies that after an
// injected leader failure the next request for the same deck reduces
// cleanly and repopulates the cache: typed failures are never stored.
func TestInjectedLeaderFaultDoesNotPoisonCache(t *testing.T) {
	s, _, release := slowServer(Config{Workers: 2})
	close(release)
	defer s.Close()
	inject.Install(inject.NewSchedule().Arm(inject.SvcFlightLeader, 0))
	defer inject.Reset()
	if code, _, _, eresp := post(t, s, tinyDeck("d0"), "fmax=1e9"); code != http.StatusInternalServerError {
		t.Fatalf("injected flight: %d (%+v), want 500", code, eresp)
	}
	if code, _, resp, _ := post(t, s, tinyDeck("d0"), "fmax=1e9"); code != http.StatusOK || resp.Cache != "miss" {
		t.Fatalf("retry after fault: %d %+v, want 200 miss", code, resp)
	}
	if code, _, resp, _ := post(t, s, tinyDeck("d0"), "fmax=1e9"); code != http.StatusOK || resp.Cache != "hit" {
		t.Fatalf("third request: %d %+v, want 200 hit", code, resp)
	}
}

// TestSeededServiceFaultSweepIsReproducible replays FromSeed schedules
// over the three service points against a fixed serial request script,
// in the same style as the core and sim sweeps: whatever the armed
// faults hit, every outcome is a typed HTTP status — and replaying the
// seed reproduces the outcome string exactly.
func TestSeededServiceFaultSweepIsReproducible(t *testing.T) {
	oneRun := func(seed int64) string {
		s, _, release := slowServer(Config{Workers: 2})
		close(release)
		defer s.Close()
		inject.Install(inject.FromSeed(seed, 4,
			inject.SvcAdmit, inject.SvcCacheStore, inject.SvcFlightLeader))
		defer inject.Reset()
		var b strings.Builder
		for i := 0; i < 6; i++ {
			code, _, resp, eresp := post(t, s, tinyDeck("sweep"), "fmax=1e9")
			switch {
			case resp != nil:
				fmt.Fprintf(&b, "%d:%s ", code, resp.Cache)
			case eresp != nil:
				fmt.Fprintf(&b, "%d:%s ", code, eresp.Stage)
			}
			switch code {
			case http.StatusOK, http.StatusTooManyRequests:
			case http.StatusInternalServerError:
				if eresp.Stage != string(resilience.StageService) {
					t.Fatalf("seed %d request %d: 500 not typed to %s: %+v", seed, i, resilience.StageService, eresp)
				}
			default:
				t.Fatalf("seed %d request %d: unexpected status %d", seed, i, code)
			}
		}
		return b.String()
	}
	for seed := int64(0); seed < 8; seed++ {
		first := oneRun(seed)
		if second := oneRun(seed); second != first {
			t.Fatalf("seed %d not reproducible:\n  first:  %s\n  second: %s", seed, first, second)
		}
	}
}
