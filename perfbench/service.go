package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// slot is one scheduled request: a hot-set deck or a never-sent one.
type slot struct {
	hot bool
	idx int // into svcRun.hot or svcRun.fresh
}

// reply is what the benchmark keeps of one response. Hit bodies are kept
// only as a digest with the cache field normalized, so a hit can be
// compared with the miss that filled the cache; miss bodies are kept
// whole, for comparison with a direct reduction.
type reply struct {
	code int
	body []byte
	sum  [32]byte
	hit  bool
	span int
	// wall is the request's latency; cpu the process CPU time it used,
	// known only when it was the one request in flight.
	wall, cpu float64
}

// svcRun is one prepared service phase: an in-process server whose hot
// set is already cached, the decks it will be sent, and the schedule.
type svcRun struct {
	srv    *service.Server
	hot    []instance
	fresh  []instance
	warm   []reply // the miss that cached each hot deck
	serial []slot
	closed []slot
}

// prepareService generates the hot set and every fresh deck of w from
// rng, builds the schedule and warms the hot set into a new server.
func prepareService(w *workload, rng *rand.Rand) (*svcRun, error) {
	r := &svcRun{}
	nFresh := (w.serialN + w.closedN + freshEvery - 1) / freshEvery
	for i := 0; i < w.hot+nFresh; i++ {
		inst, err := w.family[i%len(w.family)].generate(rng)
		if err != nil {
			return nil, err
		}
		if i < w.hot {
			r.hot = append(r.hot, inst)
		} else {
			r.fresh = append(r.fresh, inst)
		}
	}
	sched := schedule(rng, w.hot, w.serialN+w.closedN)
	r.serial, r.closed = sched[:w.serialN], sched[w.serialN:]
	r.srv = service.New(service.Config{})
	for _, inst := range r.hot {
		rep := r.send(inst, nil, 0)
		if rep.code != http.StatusOK {
			r.srv.Close()
			return nil, fmt.Errorf("warm-up of the hot set: status %d: %s", rep.code, rep.body)
		}
		r.warm = append(r.warm, rep)
	}
	return r, nil
}

// schedule lays out n requests in blocks of freshEvery, one never-sent
// deck per block at a seeded position. Hot slots walk the hot set in a
// freshly shuffled order each round, so every hot deck recurs within two
// rounds: the LRU cache never evicts one, and the hit and miss counts
// are exact.
func schedule(rng *rand.Rand, hot, n int) []slot {
	out := make([]slot, 0, n)
	var order []int
	fresh := 0
	for len(out) < n {
		pos := rng.Intn(freshEvery)
		for k := 0; k < freshEvery && len(out) < n; k++ {
			if k == pos {
				out = append(out, slot{idx: fresh})
				fresh++
				continue
			}
			if len(order) == 0 {
				order = rng.Perm(hot)
			}
			out = append(out, slot{hot: true, idx: order[0]})
			order = order[1:]
		}
	}
	return out
}

// decks returns the hot set followed by the never-sent decks.
func (r *svcRun) decks() []instance {
	return append(append([]instance(nil), r.hot...), r.fresh...)
}

func (r *svcRun) deck(s slot) instance {
	if s.hot {
		return r.hot[s.idx]
	}
	return r.fresh[s.idx]
}

var (
	cacheHit  = []byte(`"cache":"hit"`)
	cacheMiss = []byte(`"cache":"miss"`)
)

// send POSTs one deck through the server's ServeHTTP and records the
// reply; op is its trace id.
func (r *svcRun) send(inst instance, tr *tracer, op int) reply {
	req := httptest.NewRequest(http.MethodPost, inst.class.query(), strings.NewReader(inst.text))
	rec := httptest.NewRecorder()
	sp := 0
	if tr != nil {
		sp = tr.begin("service.request", 0, fmt.Sprintf("req%d", op))
	}
	t0 := time.Now()
	r.srv.ServeHTTP(rec, req)
	wall := time.Since(t0).Seconds()
	tr.end(sp)
	rep := reply{code: rec.Code, span: sp, wall: wall}
	body := rec.Body.Bytes()
	rep.hit = bytes.Contains(body, cacheHit)
	if rep.hit {
		rep.sum = sha256.Sum256(bytes.Replace(body, cacheHit, cacheMiss, 1))
	} else {
		rep.body = body
		rep.sum = sha256.Sum256(body)
	}
	return rep
}

// serviceRounds is how many rounds the service phase is cut into. On a
// batch workload one round runs after each timed deck, so the service
// metrics sample the same stretch of machine time as deck_to_spice_s
// rather than one burst of a few seconds.
const serviceRounds = 8

// svcTotals accumulates the replies and measurements of the rounds run
// so far, in schedule order.
type svcTotals struct {
	rounds         int
	serial, closed []reply
	// closedWall and closedSteal sum the closed-loop phases' wall time and
	// the hypervisor steal time within them; serialAlloc the bytes
	// allocated during the serial phases.
	closedWall, closedSteal float64
	serialAlloc             uint64
}

// round runs the next round: its share of the serial slots, one request
// at a time after a forced GC so the process CPU time across a request
// is that request's own, then its share of the closed-loop slots. It
// first returns the batch decks' freed memory to the OS, so that
// scavenging it in the background is not charged to the requests.
func (r *svcRun) round(clients int, tr *tracer, t *svcTotals) error {
	k := t.rounds
	t.rounds++
	debug.FreeOSMemory()
	lo, hi := len(r.serial)*k/serviceRounds, len(r.serial)*(k+1)/serviceRounds
	m0 := memSnapshot()
	for i := lo; i < hi; i++ {
		runtime.GC()
		c0 := cpuSeconds()
		rep := r.send(r.deck(r.serial[i]), tr, i)
		rep.cpu = cpuSeconds() - c0
		t.serial = append(t.serial, rep)
	}
	t.serialAlloc += memSnapshot().TotalAlloc - m0.TotalAlloc
	lo, hi = len(r.closed)*k/serviceRounds, len(r.closed)*(k+1)/serviceRounds
	out, wall, steal, err := r.closedLoop(r.closed[lo:hi], clients, tr, len(r.serial)+lo)
	if err != nil {
		return err
	}
	t.closed = append(t.closed, out...)
	t.closedWall += wall
	t.closedSteal += steal
	return nil
}

// closedLoop sends slots from clients goroutines, each sending its next
// request as soon as its previous one returns. It returns the replies
// and the phase's wall time and hypervisor steal time.
func (r *svcRun) closedLoop(slots []slot, clients int, tr *tracer, opBase int) (out []reply, wall, steal float64, err error) {
	out = make([]reply, len(slots))
	steal0, err := stealSeconds()
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(slots) {
					return
				}
				out[i] = r.send(r.deck(slots[i]), tr, opBase+i)
			}
		}()
	}
	wg.Wait()
	wall = time.Since(start).Seconds()
	steal1, err := stealSeconds()
	return out, wall, steal1 - steal0, err
}

// missResult decodes a miss reply's reduced deck and reduction time.
func missResult(rep reply) (*service.ReduceResponse, error) {
	var resp service.ReduceResponse
	if err := json.Unmarshal(rep.body, &resp); err != nil {
		return nil, fmt.Errorf("decode reply: %w", err)
	}
	if resp.Result == nil {
		return nil, fmt.Errorf("reply carries no result")
	}
	return &resp, nil
}
