// Package serve is the resident search service behind cmd/gtserve: an
// HTTP JSON layer that holds a set of resident engine pools over one
// shared transposition table and multiplexes concurrent search and solve
// requests onto them.
//
// Request path — one, for /v1/search and /v1/solve alike (pipeline.go):
//
//	begin (trace id, access record) → decode/validate (per endpoint) →
//	drain gate (503 while draining) → result cache → singleflight join
//	(duplicates of an in-flight request wait for the leader) → bounded
//	admission queue (429 + Retry-After when full) → acquire a resident
//	pool → run under the request deadline → settle + cache → respond
//	(one error→status table)
//
// The pools are built once at New and reused for every request — the
// whole point of the engine's resident-pool refactor: a request costs a
// park/wake cycle on warm workers instead of worker construction, deque
// allocation and goroutine spawns. The shared Table means every search of
// a game that transposes (Connect-4, Nim, ...) runs under the accumulated
// move-ordering knowledge of all previous ones; a game that never
// transposes (random) leaves the table alone, where no probe could hit.
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
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gametree/internal/engine"
	"gametree/internal/pns"
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
	// It is a capacity: the table's 16 bytes per entry are taken on its
	// first store, so traffic that never transposes (random) leaves it
	// empty.
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
	// SolveMaxNodes caps (and defaults) the node budget of one /v1/solve
	// request, and caps the nodes of one proof tree however often it is
	// resumed (0 = 1<<21). Solves stopped below the cap return a
	// resumable partial response; a tree that reaches the cap answers
	// budget_exhausted and is dropped. A tree node holds about 160 bytes
	// on four-heap Nim and 175 on two-row Kayles (the node, its position
	// and its parent's pointer to it), so a tree at the default cap holds
	// about 350 MB. The parked-solver store is bounded by one such tree:
	// its trees' nodes, at solveNodeBytes each, sum to at most
	// SolveMaxNodes × solveNodeBytes.
	SolveMaxNodes int64
	// SolveStoreEntries bounds how many parked partial solvers await
	// resume (0 = 32; negative disables parking), inside the store's
	// byte budget (see SolveMaxNodes).
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

// solveNodeBytes is the bytes one proof-tree node is charged in the
// parked-solver store: the measured ≈160 (four-heap Nim) and ≈175
// (two-row Kayles), rounded up.
const solveNodeBytes = 176

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

// searchOutcome is the settled state of one search flight. degraded is
// the backend's mark on the producing search (see degraded.go); a replay
// from the cache does not repeat it.
type searchOutcome struct {
	engine.Result
	degraded bool
}

// Server is the resident search service. Construct with New, mount
// Handler, and call Drain on shutdown.
type Server struct {
	cfg   Config
	table *engine.Table
	free  chan *engine.Pool // resident pools not currently searching

	queued atomic.Int64 // leaders and streams waiting for a pool
	search endpoint[searchOutcome]
	solve  endpoint[solveOutcome]
	parked *lru[*pns.Solver] // partial solvers awaiting resume, keyed by position
	stats  serveStats

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
	s.search = endpoint[searchOutcome]{noun: "search", cache: newLRU[searchOutcome](cfg.CacheEntries)}
	s.solve = endpoint[solveOutcome]{noun: "solve", cache: newLRU[solveOutcome](cfg.CacheEntries),
		keep: func(out solveOutcome) bool { return !out.partial }}
	s.parked = newLRU[*pns.Solver](cfg.SolveStoreEntries)
	s.parked.weigh(func(sv *pns.Solver) int64 { return sv.Progress().TreeNodes * solveNodeBytes },
		cfg.SolveMaxNodes*solveNodeBytes)
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
	cfg.Telemetry.AddPromSection(s.writeMemory)
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

// Handler returns the HTTP handler tree (POST /v1/search, POST /v1/solve,
// GET /healthz, GET /metrics, GET /debug/gttrace).
func (s *Server) Handler() http.Handler { return s.mux }

// Table exposes the shared transposition table (for load harnesses that
// want the serve configuration without HTTP).
func (s *Server) Table() *engine.Table { return s.table }

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	w, rq := s.begin(w, r)
	defer s.end(&rq)
	var req SearchRequest
	if !decode(w, r, &req) {
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
	rq.log.Game, rq.log.Pos, rq.log.Depth = req.Game, keyPosition(posKey), req.Depth
	if !s.enter(&rq) {
		s.respondErr(w, "search", nil, errDraining)
		return
	}

	key := posKey + "/d" + strconv.Itoa(req.Depth)
	var coalesced bool
	out, cached := lookup(s, &s.search, &rq, key)
	if !cached {
		run := func(ctx context.Context, pool *engine.Pool) (searchOutcome, error) {
			if pool != nil {
				res, err := pool.Search(ctx, pos, req.Depth)
				return searchOutcome{Result: res}, err
			}
			// The degraded flag lets the backend mark an exact-but-degraded
			// answer (coordinator-local compute on an empty worker ring); it
			// settles with the flight, so joiners see it too.
			ctx, degraded := WithDegraded(ctx)
			res, err := s.cfg.Backend.Search(ctx, req.Game, req.Position, req.Depth)
			return searchOutcome{res, degraded.Get()}, err
		}
		out, coalesced, err = execute(s, &s.search, r, &rq, job[searchOutcome]{key: key, deadline: s.deadline(req.DeadlineMs), run: run})
		if err != nil {
			s.respondErr(w, "search", nil, err)
			return
		}
	}
	s.stats.completed.Add(1)
	resp := SearchResponse{
		Game: req.Game, Position: rq.log.Pos, Depth: req.Depth,
		Value: out.Value, Best: out.Best, Nodes: out.Nodes,
		ElapsedMs: float64(time.Since(rq.start).Nanoseconds()) / 1e6,
		QueueMs:   float64(rq.log.QueueNs) / 1e6,
		Cached:    cached, Coalesced: coalesced,
	}
	if out.degraded && !cached {
		resp.Degraded = true
		s.stats.degraded.Add(1)
		if !coalesced {
			rq.log.Outcome = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, resp)
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
		"status":         status,
		"backend":        backend,
		"uptime_s":       time.Since(s.start).Seconds(),
		"pools":          s.cfg.Pools,
		"queue_depth":    s.cfg.QueueDepth,
		"queued":         s.queued.Load(),
		"inflight":       s.stats.inflight.Load(),
		"cache_len":      s.search.cache.len() + s.solve.cache.len(),
		"parked_solvers": s.parked.len(),
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

// Stats returns a snapshot of the serve counters of both endpoints (for
// tests, the benchmark and the gtserve shutdown report).
func (s *Server) Stats() map[string]int64 {
	m := map[string]int64{"parked_solvers": int64(s.parked.len())}
	for _, c := range s.stats.counters() {
		m[c.key] = c.v.Load()
	}
	return m
}
