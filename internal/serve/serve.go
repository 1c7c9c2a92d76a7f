// Package serve is the resident search service behind cmd/gtserve: an
// HTTP JSON layer that holds a set of resident engine pools over one
// shared transposition table and multiplexes concurrent search requests
// onto them.
//
// Request path:
//
//	decode → admission check (503 while draining) → result cache →
//	singleflight join (duplicates of an in-flight search wait for the
//	leader) → bounded admission queue (429 + Retry-After when full) →
//	acquire a resident pool → search under the request deadline →
//	cache + respond
//
// The pools are built once at New and reused for every request — the
// whole point of the engine's resident-pool refactor: a request costs a
// park/wake cycle on warm workers instead of worker construction, deque
// allocation and goroutine spawns. The shared Table means every request
// searches under the accumulated move-ordering knowledge of all previous
// ones.
//
// Overload semantics: concurrency is bounded by the pool count, queueing
// by QueueDepth *leaders* (coalesced duplicates never hold queue slots).
// Beyond that the server sheds immediately with 429 and a Retry-After
// hint rather than queue without bound; during drain it sheds with 503.
// Every admitted request gets a response — drain waits for in-flight
// requests (cancelling their searches only if the drain grace expires,
// which still produces 5xx responses, never dropped connections).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gametree/internal/engine"
	"gametree/internal/reqtrace"
	"gametree/internal/telemetry"
)

// Config parameterizes a Server. Zero values select the defaults noted
// on each field.
type Config struct {
	// Workers per engine pool (0 = GOMAXPROCS).
	Workers int
	// Pools is the number of resident pools — the maximum number of
	// concurrently running searches (0 = 2).
	Pools int
	// QueueDepth bounds how many leader requests may wait for a pool
	// before new ones are shed with 429 (0 = 64; negative = no queue).
	QueueDepth int
	// TableEntries sizes the shared transposition table (0 = 1<<20).
	TableEntries int
	// CacheEntries bounds the LRU result cache (0 = 4096; negative
	// disables caching).
	CacheEntries int
	// DefaultDeadline applies when a request carries no deadline_ms
	// (0 = 2s). MaxDeadline clamps request deadlines (0 = 30s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxDepth clamps the request depth (0 = 16).
	MaxDepth int
	// SolveMaxNodes caps (and defaults) the expansion budget of one
	// /v1/solve request (0 = 1<<21). Budget-stopped solves return a
	// resumable partial response.
	SolveMaxNodes int64
	// SolveStoreEntries bounds the store of parked partial solvers
	// awaiting resume (0 = 32; negative disables parking).
	SolveStoreEntries int
	// RetryAfter is the hint attached to 429/503 responses (0 = 1s).
	RetryAfter time.Duration
	// Telemetry receives the engine counters of all pools (on disjoint
	// shard ranges) and the serve counter section for /metrics. Nil
	// creates a private recorder so /metrics always works.
	Telemetry *telemetry.Recorder
	// Backend, when non-nil, replaces the resident local pools with an
	// external search executor — the shard coordinator, in the
	// distributed deployment. The request path is unchanged (admission,
	// cache, coalescing, queue, deadline), with Pools bounding the
	// number of concurrently running backend searches; no local table or
	// pools are built.
	Backend Backend
	// Tracer records request-scoped spans for sampled requests (its
	// sample rate decides which headerless requests are traced; an
	// inbound X-GT-Trace header is always honoured) and backs the
	// /debug/gttrace endpoint. Optional (nil = tracing off).
	Tracer *reqtrace.Tracer
	// AccessLog, when non-nil, receives one JSON line per request:
	// trace ID, game, depth, outcome, queue-wait ns, total ns, status.
	// Writes are serialized by the server.
	AccessLog io.Writer
}

// Backend runs one search to completion and returns the exact result.
// Implementations must honour ctx cancellation. The shard tier's
// Coordinator satisfies this interface; nil selects the built-in local
// pool set.
type Backend interface {
	Search(ctx context.Context, game, position string, depth int) (engine.Result, error)
}

func (c *Config) applyDefaults() {
	if c.Pools == 0 {
		c.Pools = 2
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.TableEntries == 0 {
		c.TableEntries = 1 << 20
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 2 * time.Second
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 16
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.SolveMaxNodes == 0 {
		c.SolveMaxNodes = 1 << 21
	}
	if c.SolveStoreEntries == 0 {
		c.SolveStoreEntries = 32
	}
	if c.SolveStoreEntries < 0 {
		c.SolveStoreEntries = 0
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewRecorder()
	}
}

// SearchRequest is the POST /v1/search body.
type SearchRequest struct {
	Game     string `json:"game"`     // ttt | connect4 | random
	Position string `json:"position"` // game-specific encoding (see README)
	Depth    int    `json:"depth"`
	// DeadlineMs overrides the server's default per-request deadline,
	// clamped to the configured maximum.
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

// SearchResponse is the 200 body. Nodes is the node count of the search
// that produced the value — a cached or coalesced response reports the
// producing search's count, not zero.
type SearchResponse struct {
	Game      string  `json:"game"`
	Position  string  `json:"position"` // canonical form
	Depth     int     `json:"depth"`
	Value     int32   `json:"value"`
	Best      int     `json:"best"`
	Nodes     int64   `json:"nodes"`
	ElapsedMs float64 `json:"elapsed_ms"`
	QueueMs   float64 `json:"queue_ms,omitempty"`
	Cached    bool    `json:"cached,omitempty"`
	Coalesced bool    `json:"coalesced,omitempty"`
	// Degraded marks an answer produced without the full healthy path —
	// the shard backend computed it locally because the worker ring was
	// empty. The value is still exact.
	Degraded bool `json:"degraded,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// errOverloaded settles a flight whose leader was shed before searching;
// joiners translate it back to 429.
var errOverloaded = errors.New("serve: overloaded")

// Server is the resident search service. Construct with New, mount
// Handler, and call Drain on shutdown.
type Server struct {
	cfg   Config
	table *engine.Table
	free  chan *engine.Pool // resident pools not currently searching

	queued  atomic.Int64 // leaders waiting for a pool
	flights flightGroup
	cache   *resultCache
	stats   serveStats

	solves     solveFlights // in-flight /v1/solve leaders
	solveCache *solveCache  // completed solve verdicts
	partials   *solverStore // parked partial solvers awaiting resume

	drainMu  sync.RWMutex // guards draining vs inflight.Add
	draining bool
	inflight sync.WaitGroup

	accessMu sync.Mutex // serializes cfg.AccessLog writes

	baseCtx    context.Context // parent of every search ctx; cancelled on hard stop
	baseCancel context.CancelFunc

	mux   *http.ServeMux
	start time.Time
}

// New builds the server and its resident pools. The pools share one
// transposition table and disjoint telemetry shard ranges of
// cfg.Telemetry.
func New(cfg Config) *Server {
	cfg.applyDefaults()
	s := &Server{cfg: cfg, start: time.Now()}
	s.cache = newResultCache(cfg.CacheEntries)
	s.solveCache = newSolveCache(cfg.CacheEntries)
	s.partials = newSolverStore(cfg.SolveStoreEntries)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.free = make(chan *engine.Pool, cfg.Pools)
	if cfg.Backend != nil {
		// Remote backend: the free channel carries nil tokens that bound
		// concurrent backend searches exactly as pools bound local ones.
		for i := 0; i < cfg.Pools; i++ {
			s.free <- nil
		}
	} else {
		s.table = engine.NewTable(cfg.TableEntries)
		workers := 0
		for i := 0; i < cfg.Pools; i++ {
			p := engine.NewPoolShards(cfg.Workers, s.table, cfg.Telemetry, i*workers)
			workers = p.Workers() // resolve the 0 = GOMAXPROCS default once
			s.free <- p
		}
	}
	cfg.Telemetry.AddPromSection(s.stats.writeProm)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/search", s.handleSearch)
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.Handle("/metrics", telemetry.PromHandler(cfg.Telemetry))
	// Nil-safe: with tracing off the endpoint serves an empty dump, so
	// gtobs can always scrape every ring process.
	s.mux.Handle("/debug/gttrace", reqtrace.Handler(cfg.Tracer))
	return s
}

// Handler returns the HTTP handler tree (POST /v1/search, GET /healthz,
// GET /metrics).
func (s *Server) Handler() http.Handler { return s.mux }

// Table exposes the shared transposition table (for load harnesses that
// want the serve configuration without HTTP).
func (s *Server) Table() *engine.Table { return s.table }

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	start := time.Now()

	// Trace selection: an inbound X-GT-Trace header is always honoured,
	// otherwise the tracer's sampler picks 1-in-N. trace == "" means the
	// request is unsampled and every recording site below no-ops on it —
	// the unsampled path allocates nothing (no wrapper, no context node)
	// unless the access log needs the status anyway.
	trace := r.Header.Get("X-GT-Trace")
	if trace == "" && s.cfg.Tracer.SampleNext() {
		trace = reqtrace.MintID()
	}
	var rec *accessRecord
	if trace != "" || s.cfg.AccessLog != nil {
		sw := &statusWriter{ResponseWriter: w}
		w = sw
		rec = &accessRecord{sw: sw, trace: trace}
		if trace != "" {
			w.Header().Set("X-GT-Trace", trace)
		}
		defer s.finishRequest(rec, start)
	}

	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST required"})
		return
	}
	var req SearchRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"bad request body: " + err.Error()})
		return
	}
	pos, posKey, err := ParsePosition(req.Game, req.Position)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	if req.Depth < 0 || req.Depth > s.cfg.MaxDepth {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{fmt.Sprintf("depth %d out of range [0, %d]", req.Depth, s.cfg.MaxDepth)})
		return
	}
	if rec != nil {
		rec.game, rec.pos, rec.depth = req.Game, keyPosition(posKey), req.Depth
	}

	// Admission gate: no new work once draining. The RLock pairs with
	// Drain's Lock so a request either sees draining (shed here) or has
	// joined the inflight group before Drain starts waiting — never the
	// gap in between, which would let Drain return with this request
	// unanswered.
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		s.stats.rejectedDraining.Add(1)
		s.shed(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.inflight.Add(1)
	s.drainMu.RUnlock()
	defer s.inflight.Done()
	s.stats.inflight.Add(1)
	defer s.stats.inflight.Add(-1)
	defer func() { s.stats.latencyNs.Observe(time.Since(start).Nanoseconds()) }()

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMs > 0 {
		deadline = time.Duration(req.DeadlineMs) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}

	key := posKey + "/d" + strconv.Itoa(req.Depth)
	resp := SearchResponse{Game: req.Game, Position: keyPosition(posKey), Depth: req.Depth}

	if res, ok := s.cache.get(key); ok {
		s.stats.cacheHits.Add(1)
		s.stats.completed.Add(1)
		if rec != nil {
			rec.outcome = "cache-hit"
		}
		resp.fill(res, start, 0)
		resp.Cached = true
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.stats.cacheMisses.Add(1)

	call, leader := s.flights.join(key)
	if !leader {
		// Coalesce: wait for the leader's search under this request's own
		// deadline. The search itself keeps running on the leader's ctx —
		// one slow joiner times out alone, it does not cancel the others.
		s.stats.coalesced.Add(1)
		if rec != nil {
			rec.outcome = "coalesced"
		}
		select {
		case <-call.done:
		case <-time.After(deadline):
			s.stats.deadlineExceeded.Add(1)
			writeJSON(w, http.StatusGatewayTimeout, errorResponse{"deadline exceeded waiting for coalesced search"})
			return
		case <-s.baseCtx.Done():
			s.stats.rejectedDraining.Add(1)
			s.shed(w, http.StatusServiceUnavailable, "cancelled by shutdown")
			return
		case <-r.Context().Done():
			return // client went away; nothing to answer
		}
		s.respondSettled(w, resp, call, start, 0, true)
		return
	}

	// Leader path: bounded admission queue, then a resident pool.
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.flights.finish(key, call, engine.Result{}, errOverloaded)
		s.stats.rejectedQueue.Add(1)
		s.shed(w, http.StatusTooManyRequests, "admission queue full")
		return
	}
	waitStart := time.Now()
	var pool *engine.Pool
	select {
	case pool = <-s.free:
	case <-time.After(deadline):
		s.queued.Add(-1)
		s.flights.finish(key, call, engine.Result{}, errOverloaded)
		s.stats.deadlineExceeded.Add(1)
		s.shed(w, http.StatusServiceUnavailable, "deadline exceeded waiting for a pool")
		return
	case <-s.baseCtx.Done():
		s.queued.Add(-1)
		s.flights.finish(key, call, engine.Result{}, errOverloaded)
		s.stats.rejectedDraining.Add(1)
		s.shed(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	s.queued.Add(-1)
	queueWait := time.Since(waitStart)
	s.stats.queueWaitNs.Observe(queueWait.Nanoseconds())
	s.stats.admitted.Add(1)
	if rec != nil {
		rec.outcome = "search"
		rec.queueNs = queueWait.Nanoseconds()
	}
	if trace != "" {
		s.cfg.Tracer.Record(reqtrace.Span{
			Trace: trace, Stage: reqtrace.StageQueue,
			StartNs: waitStart.UnixNano(), DurNs: queueWait.Nanoseconds(),
		})
	}

	// The search runs detached, under the server's lifetime plus the
	// remaining request budget — decoupled from the leader's connection,
	// so a leader disconnect (or backstop timeout below) does not strand
	// the coalesced joiners, and the pool is reclaimed by this goroutine
	// no matter how the leader's response went.
	budget := deadline - queueWait
	sctx, cancel := context.WithTimeout(s.baseCtx, budget)
	// The trace rides the search context into the backend (the shard
	// coordinator reads it there); coalesced joiners see the leader's
	// trace on the spans, which is where the work actually ran.
	sctx = reqtrace.NewContext(sctx, trace)
	// The degraded flag lets the backend mark an exact-but-degraded
	// answer (coordinator-local compute on an empty worker ring); it is
	// copied onto the flight before it settles so joiners see it too.
	sctx, degradedFlag := WithDegraded(sctx)
	go func() {
		defer cancel()
		var res engine.Result
		var err error
		searchStart := time.Now()
		if pool != nil {
			res, err = pool.Search(sctx, pos, req.Depth)
		} else {
			res, err = s.cfg.Backend.Search(sctx, req.Game, req.Position, req.Depth)
		}
		if trace != "" {
			note := "ok"
			if err != nil {
				note = "err: " + err.Error()
			}
			s.cfg.Tracer.Record(reqtrace.Span{
				Trace: trace, Stage: reqtrace.StageSearch,
				StartNs: searchStart.UnixNano(), DurNs: time.Since(searchStart).Nanoseconds(),
				Note: note,
			})
		}
		s.free <- pool
		if err == nil {
			s.cache.put(key, res)
		}
		call.degraded = degradedFlag.Get() // before finish: done's close publishes it
		s.flights.finish(key, call, res, err)
	}()
	select {
	case <-call.done:
		if call.degraded && rec != nil {
			rec.outcome = "degraded"
		}
		s.respondSettled(w, resp, call, start, queueWait, false)
	case <-time.After(budget + searchGrace):
		// The search did not return even after its ctx expired: it is
		// stuck in Position code that never polls (user-provided games
		// can do that). Answer 504 and abandon it — the goroutine above
		// settles the flight and reclaims the pool if it ever surfaces.
		s.stats.deadlineExceeded.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{"search deadline exceeded"})
	case <-s.baseCtx.Done():
		// Hard shutdown: the search ctx is cancelled with the base ctx;
		// answer now rather than racing its unwind.
		s.stats.rejectedDraining.Add(1)
		s.shed(w, http.StatusServiceUnavailable, "cancelled by shutdown")
	}
}

// searchGrace is the slack between a search ctx expiring and the leader
// giving up on the search returning at all (see the backstop above).
const searchGrace = 250 * time.Millisecond

// statusWriter captures the response status once so the request span
// and access log can report it without touching every write site.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

// accessRecord accumulates one request's identity and outcome as the
// handler learns them; finishRequest turns it into the request span and
// the access-log line. Only allocated for traced or logged requests.
type accessRecord struct {
	sw      *statusWriter
	trace   string
	game    string
	pos     string
	depth   int
	outcome string // cache-hit | coalesced | search | degraded | "" (failed before admission)
	queueNs int64
}

// accessLine is the JSONL access-log schema: one self-contained line per
// request, so request-level data survives without a trace scrape.
type accessLine struct {
	TS      string `json:"ts"`
	Trace   string `json:"trace,omitempty"`
	Game    string `json:"game,omitempty"`
	Pos     string `json:"pos,omitempty"`
	Depth   int    `json:"depth"`
	Outcome string `json:"outcome,omitempty"`
	QueueNs int64  `json:"queue_ns"`
	TotalNs int64  `json:"total_ns"`
	Status  int    `json:"status"`
}

func (s *Server) finishRequest(rec *accessRecord, start time.Time) {
	totalNs := time.Since(start).Nanoseconds()
	status := rec.sw.status
	if status == 0 {
		status = http.StatusOK
	}
	if rec.trace != "" {
		note := strconv.Itoa(status)
		if rec.outcome != "" {
			note += " " + rec.outcome
		}
		s.cfg.Tracer.Record(reqtrace.Span{
			Trace: rec.trace, Stage: reqtrace.StageRequest,
			StartNs: start.UnixNano(), DurNs: totalNs,
			Note: note,
		})
	}
	if s.cfg.AccessLog == nil {
		return
	}
	b, err := json.Marshal(accessLine{
		TS:      start.UTC().Format(time.RFC3339Nano),
		Trace:   rec.trace,
		Game:    rec.game,
		Pos:     rec.pos,
		Depth:   rec.depth,
		Outcome: rec.outcome,
		QueueNs: rec.queueNs,
		TotalNs: totalNs,
		Status:  status,
	})
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.accessMu.Lock()
	_, _ = s.cfg.AccessLog.Write(b)
	s.accessMu.Unlock()
}

// respondSettled renders a settled flight for one waiter (leader or
// joiner).
func (s *Server) respondSettled(w http.ResponseWriter, resp SearchResponse, call *flightCall, start time.Time, queueWait time.Duration, coalesced bool) {
	if err := call.err; err != nil {
		switch {
		case errors.Is(err, errOverloaded):
			s.stats.rejectedQueue.Add(1)
			s.shed(w, http.StatusTooManyRequests, "coalesced leader was shed")
		case errors.Is(err, context.DeadlineExceeded):
			s.stats.deadlineExceeded.Add(1)
			writeJSON(w, http.StatusGatewayTimeout, errorResponse{"search deadline exceeded"})
		case errors.Is(err, engine.ErrCancelled), errors.Is(err, engine.ErrPoolClosed):
			s.stats.rejectedDraining.Add(1)
			s.shed(w, http.StatusServiceUnavailable, "search cancelled by shutdown")
		default:
			s.stats.failed.Add(1)
			writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
		}
		return
	}
	s.stats.completed.Add(1)
	resp.fill(call.res, start, queueWait)
	resp.Coalesced = coalesced
	if call.degraded {
		resp.Degraded = true
		s.stats.degraded.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (r *SearchResponse) fill(res engine.Result, start time.Time, queueWait time.Duration) {
	r.Value = res.Value
	r.Best = res.Best
	r.Nodes = res.Nodes
	r.ElapsedMs = float64(time.Since(start).Nanoseconds()) / 1e6
	r.QueueMs = float64(queueWait.Nanoseconds()) / 1e6
}

// keyPosition strips the "<game>|" prefix off a position key, recovering
// the canonical position string for the response.
func keyPosition(posKey string) string {
	for i := 0; i < len(posKey); i++ {
		if posKey[i] == '|' {
			return posKey[i+1:]
		}
	}
	return posKey
}

// shed writes an overload response with the Retry-After hint.
func (s *Server) shed(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	writeJSON(w, status, errorResponse{msg})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()
	status, code := "ok", http.StatusOK
	if draining {
		// 503 takes a draining instance out of load-balancer rotation.
		status, code = "draining", http.StatusServiceUnavailable
	}
	backend := "local"
	if s.cfg.Backend != nil {
		backend = "shard"
	}
	writeJSON(w, code, map[string]any{
		"status":      status,
		"backend":     backend,
		"uptime_s":    time.Since(s.start).Seconds(),
		"pools":       s.cfg.Pools,
		"queue_depth": s.cfg.QueueDepth,
		"queued":      s.queued.Load(),
		"inflight":    s.stats.inflight.Load(),
		"cache_len":   s.cache.len(),
	})
}

// Drain performs the graceful shutdown sequence: stop admitting, wait
// for every in-flight request to be answered, then cancel any detached
// searches still running and close the pools. If ctx expires before the
// requests are answered, the in-flight searches are cancelled early —
// their handlers still respond (with 5xx), so no request is dropped
// without a response — and Drain returns ctx.Err() once they have.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	already := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if already {
		return nil
	}
	quiesced := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(quiesced)
	}()
	var err error
	select {
	case <-quiesced:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel() // cancel in-flight searches; handlers respond 5xx
		<-quiesced
	}
	// Handlers are all answered. Cancel searches that outlived their
	// leader (504 backstop) and close the pools as their searches hand
	// them back. A search wedged in Position code that never polls can
	// hold its pool past ctx; those pools are closed by a reaper as they
	// surface rather than holding Drain hostage.
	s.baseCancel()
	for i := 0; i < s.cfg.Pools; i++ {
		select {
		case p := <-s.free:
			if p != nil {
				p.Close()
			}
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
			remaining := s.cfg.Pools - i
			go func() {
				for j := 0; j < remaining; j++ {
					if p := <-s.free; p != nil {
						p.Close()
					}
				}
			}()
			return err
		}
	}
	return err
}

// Stats returns a snapshot of the serve counters (for tests and the
// gtserve shutdown report).
func (s *Server) Stats() map[string]int64 {
	return map[string]int64{
		"requests":          s.stats.requests.Load(),
		"admitted":          s.stats.admitted.Load(),
		"rejected_queue":    s.stats.rejectedQueue.Load(),
		"rejected_draining": s.stats.rejectedDraining.Load(),
		"coalesced":         s.stats.coalesced.Load(),
		"cache_hits":        s.stats.cacheHits.Load(),
		"cache_misses":      s.stats.cacheMisses.Load(),
		"deadline_exceeded": s.stats.deadlineExceeded.Load(),
		"completed":         s.stats.completed.Load(),
		"failed":            s.stats.failed.Load(),
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
