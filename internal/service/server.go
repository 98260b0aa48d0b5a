package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	pact "repro"
	"repro/internal/netlist"
	"repro/internal/resilience"
	"repro/internal/resilience/inject"
)

// errOverloaded is returned by admission when the queue is at its depth
// limit (or the svc.admit injection point forces a shed); the HTTP
// layer maps it to 429 with a Retry-After header.
var errOverloaded = errors.New("service: admission queue full")

// errDraining is returned for work arriving after BeginDrain; mapped to
// 503 so orchestrators retry against another replica.
var errDraining = errors.New("service: draining")

// Config sizes the service. The zero value of every field selects a
// production-reasonable default.
type Config struct {
	// Workers bounds concurrent reductions (default runtime.GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker slot beyond the
	// ones running; an arrival finding the queue full is shed with 429
	// (default 4×Workers).
	QueueDepth int
	// RequestTimeout is the per-reduction deadline, wired into the
	// pipeline's context cancellation (default 2m; <0 disables).
	RequestTimeout time.Duration
	// CacheEntries bounds the content-addressed model cache (default 256).
	CacheEntries int
	// MaxDeckBytes caps the request body (default 64 MiB).
	MaxDeckBytes int64
	// RetryAfter is the Retry-After hint attached to 429 responses
	// (default 1s, rounded up to whole seconds).
	RetryAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.CacheEntries < 1 {
		c.CacheEntries = 256
	}
	if c.MaxDeckBytes < 1 {
		c.MaxDeckBytes = 64 << 20
	}
	if c.RetryAfter < time.Second {
		c.RetryAfter = time.Second
	}
	return c
}

// Stats is the /statz snapshot: queue and worker gauges, request
// counters, cache and singleflight counters, and the pooled
// FactorWorkspace footprint of the reductions served.
type Stats struct {
	UptimeNs   int64 `json:"uptime_ns"`
	Draining   bool  `json:"draining"`
	Workers    int   `json:"workers"`
	QueueLimit int   `json:"queue_limit"`
	// QueueDepth is the current number of requests waiting for a worker
	// slot; Inflight the requests inside the reduce path (queued or
	// reducing).
	QueueDepth int64 `json:"queue_depth"`
	Inflight   int64 `json:"inflight"`

	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Shed      int64 `json:"shed"`
	Timeouts  int64 `json:"timeouts"`
	// Degraded counts served reductions whose recovery ladders fired:
	// results that are valid but carry recorded, bounded degradations.
	Degraded int64 `json:"degraded"`

	Cache   CacheStats  `json:"cache"`
	Flights FlightStats `json:"flights"`

	// StageTotals accumulates the per-stage wall time of every reduction
	// this process actually ran (led flights only; hits and followers are
	// free), so operators can see whether the front end (stamp/assemble)
	// or the factorizer dominates the fleet's spend.
	StageTotals pact.StageTimes `json:"stage_totals_ns"`

	// WorkspaceLastBytes/WorkspacePeakBytes report the pooled
	// chol.FactorWorkspace scratch of the most recent and the largest
	// reduction served, surfacing the steady-state memory the worker
	// pool pins.
	WorkspaceLastBytes int64 `json:"workspace_last_bytes"`
	WorkspacePeakBytes int64 `json:"workspace_peak_bytes"`
}

// ReduceResponse is the JSON body of a successful POST /reduce.
type ReduceResponse struct {
	*Result
	// Cache reports how the request was served: "hit" (cache), "miss"
	// (this request led the reduction) or "follower" (deduplicated onto
	// a concurrent identical request's flight).
	Cache string `json:"cache"`
	// Key is the canonical content-address; RawKey hashes the request
	// bytes exactly as received.
	Key    string `json:"key"`
	RawKey string `json:"raw_key"`
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
	// Stage names the failing pipeline stage when the error is a typed
	// resilience.StageError.
	Stage string `json:"stage,omitempty"`
}

// Server is the reduction service. It implements http.Handler; process
// lifetime (listening, signals) belongs to the caller — cmd/rcfitd.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	// baseCtx parents every reduction; cancelAll is the drain hammer.
	baseCtx   context.Context
	cancelAll context.CancelFunc

	sem      chan struct{} // worker slots
	waiting  atomic.Int64  // requests queued for a slot
	inflight atomic.Int64
	wg       sync.WaitGroup
	draining atomic.Bool

	cache   *modelCache
	flights *flightGroup

	admitSeq, storeSeq, flightSeq atomic.Int64

	requests, completed, failed, shed, timeouts, degraded atomic.Int64
	wsLast, wsPeak                                        atomic.Int64

	// Cumulative per-stage wall time of every reduction this process led
	// (cache hits and followers add nothing — the work ran once).
	stageMu     sync.Mutex
	stageTotals pact.StageTimes

	// reduceFn runs one reduction; tests substitute it to control timing
	// and outcomes without multi-second decks.
	reduceFn func(ctx context.Context, deck *netlist.Deck, opts pact.Options) (*Result, error)
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		start:     time.Now(),
		baseCtx:   ctx,
		cancelAll: cancel,
		sem:       make(chan struct{}, cfg.Workers),
		cache:     newModelCache(cfg.CacheEntries),
		flights:   newFlightGroup(),
	}
	s.reduceFn = s.runReduction
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/reduce", s.handleReduce)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statz", s.handleStatz)
	return s
}

// ServeHTTP dispatches to the service mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// runReduction is the real reduction path: the leader's work function.
// It runs under the server's lifetime context (not the leader's request
// context — followers inherit the result, so one impatient client must
// not cancel everyone's reduction) plus the per-request deadline.
func (s *Server) runReduction(ctx context.Context, deck *netlist.Deck, opts pact.Options) (*Result, error) {
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	red, err := pact.ReduceDeckContext(ctx, deck, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Deck:         red.Deck.String(),
		Poles:        red.Model.K(),
		Ports:        red.Stats.Ports,
		Internal:     red.Stats.Internal,
		ScratchBytes: red.Stats.ScratchBytes,
		ElapsedNs:    red.Elapsed.Nanoseconds(),
		Stage:        red.Stats.Stage,
	}
	for _, rec := range red.Stats.Recoveries {
		res.Recoveries = append(res.Recoveries, rec.String())
	}
	s.recordStages(res.Stage)
	return res, nil
}

// recordStages folds one reduction's stage breakdown into the running
// /statz totals (front-end parse time is absent here: the service parses
// decks on the request path before the flight, so its cost shows up in
// the request latency, not the reduction's stage accounting).
func (s *Server) recordStages(st pact.StageTimes) {
	s.stageMu.Lock()
	s.stageTotals.Add(st)
	s.stageMu.Unlock()
}

// acquireSlot admits the caller into the bounded worker pool: it sheds
// deterministically (errOverloaded) when QueueDepth requests are
// already waiting — the queue gauge never overshoots its limit — then
// blocks for a worker slot. The svc.admit injection point fires here
// with the admission sequence number; an armed failure forces the shed
// path regardless of actual depth. Returns a release func on success.
func (s *Server) acquireSlot(ctx context.Context) (func(), error) {
	seq := s.admitSeq.Add(1) - 1
	if inject.Enabled && inject.ShouldFail(inject.SvcAdmit, int(seq)) {
		return nil, resilience.NewStageError(resilience.StageService,
			fmt.Sprintf("admit #%d", seq), nil, errOverloaded)
	}
	for {
		n := s.waiting.Load()
		if n >= int64(s.cfg.QueueDepth) {
			return nil, resilience.NewStageError(resilience.StageService,
				fmt.Sprintf("admit #%d", seq), nil, errOverloaded)
		}
		if s.waiting.CompareAndSwap(n, n+1) {
			break
		}
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, resilience.Canceled(resilience.StageService, ctx)
	case <-s.baseCtx.Done():
		return nil, errDraining
	}
}

// handleReduce is POST /reduce: raw-key alias → parse → cache →
// singleflight → admit → reduce → store. A repeat of the bytes that
// stored a cached result is answered from the alias index before the
// parse. Admission
// happens inside the flight leader, so a thundering herd of identical
// decks occupies one queue slot and pays one factorization; followers
// wait for free.
func (s *Server) handleReduce(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("service: %s not allowed on /reduce", r.Method), 0)
		return
	}
	s.requests.Add(1)
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errDraining, 0)
		return
	}
	// Track the request for drain *before* re-checking the flag: a drain
	// beginning between the check above and wg.Add must either see this
	// request in the group or be seen by the re-check.
	s.wg.Add(1)
	defer s.wg.Done()
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errDraining, 0)
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	opts, err := optionsFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err, 0)
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxDeckBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("service: read deck: %w", err), 0)
		return
	}
	rawKey := RawKey(raw, opts)
	res, key, ok := s.cache.getRaw(rawKey)
	var deck *netlist.Deck
	if !ok {
		deck, err = netlist.ParseString(string(raw))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: parse deck: %w", err), 0)
			return
		}
		key = CanonicalKey(deck, opts)
		res, ok = s.cache.get(key)
	}
	if ok {
		s.completed.Add(1)
		writeJSON(w, http.StatusOK, &ReduceResponse{Result: res, Cache: "hit", Key: key, RawKey: rawKey})
		return
	}

	res, err, led := s.flights.do(key, func() (*Result, error) {
		release, aerr := s.acquireSlot(r.Context())
		if aerr != nil {
			return nil, aerr
		}
		defer release()
		// The leader fault point fires once the flight owns a worker slot
		// — mid-flight, when followers are already parked on it. A plain
		// arm yields the typed StageError below (shared by every
		// follower); an ArmFunc that panics models a leader crash, which
		// runProtected contains and followers fail over from.
		fseq := s.flightSeq.Add(1) - 1
		if inject.Enabled && inject.ShouldFail(inject.SvcFlightLeader, int(fseq)) {
			return nil, resilience.NewStageError(resilience.StageService,
				fmt.Sprintf("flight %s leader", shortKey(key)), nil, errLeaderFault)
		}
		out, rerr := s.reduceFn(s.baseCtx, deck, opts)
		if rerr != nil {
			return nil, rerr
		}
		s.recordWorkspace(out.ScratchBytes)
		s.cache.store(key, rawKey, out, int(s.storeSeq.Add(1)-1))
		return out, nil
	})
	if err != nil {
		s.recordFailure(err)
		writeError(w, statusFor(err), err, s.retryAfterSeconds(err))
		return
	}
	s.completed.Add(1)
	if len(res.Recoveries) > 0 {
		s.degraded.Add(1)
	}
	mode := "follower"
	if led {
		mode = "miss"
	}
	writeJSON(w, http.StatusOK, &ReduceResponse{Result: res, Cache: mode, Key: key, RawKey: rawKey})
}

// errLeaderFault is the sentinel cause of an injected svc.flight.leader
// failure; followers of the flight observe the identical StageError.
var errLeaderFault = errors.New("service: injected leader fault")

// recordFailure classifies a failed reduction for the counters.
func (s *Server) recordFailure(err error) {
	switch {
	case errors.Is(err, errOverloaded):
		s.shed.Add(1)
	case resilience.IsCancellation(err) && s.baseCtx.Err() == nil:
		s.timeouts.Add(1)
		s.failed.Add(1)
	default:
		s.failed.Add(1)
	}
}

// recordWorkspace tracks the pooled-workspace footprint gauges.
func (s *Server) recordWorkspace(b int64) {
	s.wsLast.Store(b)
	for {
		peak := s.wsPeak.Load()
		if b <= peak || s.wsPeak.CompareAndSwap(peak, b) {
			return
		}
	}
}

// statusFor maps a reduce-path error to its HTTP status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case resilience.IsCancellation(err):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) retryAfterSeconds(err error) int {
	if !errors.Is(err, errOverloaded) {
		return 0
	}
	secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// Snapshot assembles the /statz view; exported so in-process readers
// such as perfbench read the same numbers the endpoint serves.
func (s *Server) Snapshot() Stats {
	s.stageMu.Lock()
	stages := s.stageTotals
	s.stageMu.Unlock()
	return Stats{
		UptimeNs:           time.Since(s.start).Nanoseconds(),
		Draining:           s.draining.Load(),
		Workers:            s.cfg.Workers,
		QueueLimit:         s.cfg.QueueDepth,
		QueueDepth:         s.waiting.Load(),
		Inflight:           s.inflight.Load(),
		Requests:           s.requests.Load(),
		Completed:          s.completed.Load(),
		Failed:             s.failed.Load(),
		Shed:               s.shed.Load(),
		Timeouts:           s.timeouts.Load(),
		Degraded:           s.degraded.Load(),
		Cache:              s.cache.snapshot(),
		Flights:            s.flights.snapshot(),
		StageTotals:        stages,
		WorkspaceLastBytes: s.wsLast.Load(),
		WorkspacePeakBytes: s.wsPeak.Load(),
	}
}

// BeginDrain flips the server into draining: /healthz reports 503 and
// new /reduce requests are refused. In-flight work continues.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain gracefully stops the server: it begins draining, waits for
// in-flight requests, and past ctx's deadline cancels them through the
// pipeline's cooperative cancellation, then waits for them to unwind.
// Returns nil when every request finished on its own, or an error
// naming how many were canceled.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancelAll()
		return nil
	case <-ctx.Done():
		forced := s.inflight.Load()
		s.cancelAll()
		<-done
		return fmt.Errorf("service: drain deadline expired, canceled %d in-flight request(s)", forced)
	}
}

// Close cancels every in-flight reduction immediately (tests and
// last-resort shutdown).
func (s *Server) Close() { s.cancelAll() }

// optionsFromQuery sets each query parameter (pact.Options.Set, in sorted
// order) and canonicalizes; an unknown or repeated one is an error.
func optionsFromQuery(r *http.Request) (pact.Options, error) {
	q := r.URL.Query()
	names := make([]string, 0, len(q))
	for name := range q {
		names = append(names, name)
	}
	sort.Strings(names)
	var opts pact.Options
	for _, name := range names {
		if len(q[name]) > 1 {
			return opts, fmt.Errorf("service: query parameter %q repeated", name)
		}
		if err := opts.Set(name, q[name][0]); err != nil {
			return opts, fmt.Errorf("service: %w", err)
		}
	}
	opts, err := opts.Canonical()
	if err != nil {
		return opts, fmt.Errorf("service: %w", err)
	}
	return opts, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	//lint:ignore checkerr the response writer owns delivery failures; there is no caller to report a broken client connection to
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error, retryAfterSecs int) {
	resp := errorResponse{Error: err.Error()}
	var se *resilience.StageError
	if errors.As(err, &se) {
		resp.Stage = string(se.Stage)
	}
	if retryAfterSecs > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
	}
	writeJSON(w, status, resp)
}
