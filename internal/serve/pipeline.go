package serve

// The request pipeline (the package comment draws the path): written once,
// generic over the result type R — an engine result, a solve verdict — the
// way the paper reads Parallel SOLVE and Parallel α-β as one procedure
// over two value domains. A handler contributes only what differs: how
// its body decodes, the run func that does the work on an admitted pool,
// and how R renders.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gametree/internal/engine"
	"gametree/internal/reqtrace"
)

// request is one request's pipeline state. It lives on the handler's
// stack: begin fills it, the steps record what they learn in log, and the
// deferred end closes it.
type request struct {
	start   time.Time
	sw      *statusWriter // nil unless the request is traced or access-logged
	entered bool          // passed the drain gate: counted in-flight until end
	// log doubles as the request's identity and outcome so far. Trace ""
	// means unsampled, and every span-recording site no-ops on it.
	log accessLine
}

// accessLine is the JSONL access-log schema: one self-contained line per
// request, so request-level data survives without a trace scrape.
type accessLine struct {
	TS    string `json:"ts"`
	Trace string `json:"trace,omitempty"`
	Game  string `json:"game,omitempty"`
	Pos   string `json:"pos,omitempty"`
	Depth int    `json:"depth"`
	// cache-hit | coalesced | search | degraded | solve | partial, or ""
	// for a request that failed before admission.
	Outcome string `json:"outcome,omitempty"`
	QueueNs int64  `json:"queue_ns"`
	TotalNs int64  `json:"total_ns"`
	Status  int    `json:"status"`
}

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

// Unwrap lets http.ResponseController reach the connection's Flush, so a
// traced or logged stream still delivers its frames as they are written.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// begin opens a request; the caller defers end. Trace selection: an
// inbound X-GT-Trace header is always honoured, otherwise the tracer's
// sampler picks 1-in-N. The unsampled path allocates nothing (no wrapper,
// no context node) unless the access log needs the status anyway.
func (s *Server) begin(w http.ResponseWriter, r *http.Request) (http.ResponseWriter, request) {
	rq := request{start: time.Now()}
	rq.log.Trace = r.Header.Get("X-GT-Trace")
	if rq.log.Trace == "" && s.cfg.Tracer.SampleNext() {
		rq.log.Trace = reqtrace.MintID()
	}
	if rq.log.Trace != "" || s.cfg.AccessLog != nil {
		rq.sw = &statusWriter{ResponseWriter: w}
		w = rq.sw
		if rq.log.Trace != "" {
			w.Header().Set("X-GT-Trace", rq.log.Trace)
		}
	}
	return w, rq
}

// end closes a request: the request span and access-log line (both
// endpoints, every outcome), then the in-flight accounting — last, so
// Drain returning means the log is complete too.
func (s *Server) end(rq *request) {
	rq.log.TotalNs = time.Since(rq.start).Nanoseconds()
	if rq.sw != nil {
		rq.log.Status = rq.sw.status
		if rq.log.Status == 0 {
			rq.log.Status = http.StatusOK
		}
		note := strconv.Itoa(rq.log.Status)
		if rq.log.Outcome != "" {
			note += " " + rq.log.Outcome
		}
		s.cfg.Tracer.Record(reqtrace.Span{
			Trace: rq.log.Trace, Stage: reqtrace.StageRequest,
			StartNs: rq.start.UnixNano(), DurNs: rq.log.TotalNs,
			Note: note,
		})
		if s.cfg.AccessLog != nil {
			rq.log.TS = rq.start.UTC().Format(time.RFC3339Nano)
			if b, err := json.Marshal(rq.log); err == nil {
				s.accessMu.Lock()
				_, _ = s.cfg.AccessLog.Write(append(b, '\n'))
				s.accessMu.Unlock()
			}
		}
	}
	if rq.entered {
		s.stats.latencyNs.Observe(rq.log.TotalNs)
		s.stats.inflight.Add(-1)
		s.inflight.Done()
	}
}

// decode reads a POST body into v, answering 405/400 itself on failure.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST required"})
		return false
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"bad request body: " + err.Error()})
		return false
	}
	return true
}

// enter is the drain gate: no new work once draining. The RLock pairs
// with Drain's Lock so a request either sees draining (shed by the
// caller) or has joined the inflight group before Drain starts waiting —
// never the gap in between, which would let Drain return with this
// request unanswered.
func (s *Server) enter(rq *request) bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	s.stats.inflight.Add(1)
	rq.entered = true
	return true
}

// deadline resolves a request's deadline_ms against the configured
// default and clamp.
func (s *Server) deadline(ms int) time.Duration {
	d := s.cfg.DefaultDeadline
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	return min(d, s.cfg.MaxDeadline)
}

// endpoint is the per-result-type state of the pipeline.
type endpoint[R any] struct {
	noun    string // "search" | "solve": the admitted outcome and error wording
	cache   *lru[R]
	flights flights[R]
	// keep reports whether a settled result may be cached (nil = always);
	// /v1/solve caches only final answers, never a parked partial.
	keep func(R) bool
}

// job is one cache-missed request, ready to execute.
type job[R any] struct {
	key      string
	deadline time.Duration
	// run does the work on an admitted pool token (nil in backend mode).
	// It must honour ctx; whatever it returns is what every waiter sees.
	run func(ctx context.Context, pool *engine.Pool) (R, error)
	// stream=true only: the open ndjson response and the sampler that
	// feeds it one progress frame per tick (nil = nothing to report yet).
	stream   *ndjson
	progress func() any
}

// Settlement and wait outcomes the pipeline itself produces; respondErr
// maps them, and whatever a run func returned, to a status.
var (
	errDraining  = errors.New("draining")
	errQueueFull = errors.New("admission queue full")
	// errOverloaded settles a flight whose leader was shed before running;
	// joiners translate it back to 429.
	errOverloaded = errors.New("coalesced leader was shed")
	errPoolWait   = errors.New("deadline exceeded waiting for a pool")
	errJoinWait   = errors.New("deadline exceeded waiting for coalesced")
	errShutdown   = errors.New("cancelled by shutdown")
	errClientGone = errors.New("client went away")
)

// searchGrace is the slack between a run's ctx expiring and its waiter
// giving up on the run returning at all (see the backstop in execute).
const searchGrace = 250 * time.Millisecond

// lookup is the cache step, kept apart from execute so that a hit never
// builds the job (its run closure is the first allocation of a miss).
func lookup[R any](s *Server, ep *endpoint[R], rq *request, key string) (R, bool) {
	out, ok := ep.cache.get(key)
	if ok {
		s.stats.cacheHits.Add(1)
		rq.log.Outcome = "cache-hit"
	} else {
		s.stats.cacheMisses.Add(1)
	}
	return out, ok
}

// execute takes a cache miss through coalesce → admit → run → settle and
// returns the settled result; on error the caller answers via respondErr.
func execute[R any](s *Server, ep *endpoint[R], r *http.Request, rq *request, j job[R]) (out R, coalesced bool, err error) {
	// One clock for every wait below and for the run itself: the request
	// deadline under the server's lifetime. A unary run is detached from
	// the leader's connection, so a leader disconnect (or the backstop
	// below) does not strand the coalesced joiners; a streaming run hangs
	// off the client connection, so a disconnect cancels it and releases
	// the pool workers promptly — with shutdown still cutting in.
	parent := s.baseCtx
	if j.stream != nil {
		parent = r.Context()
	}
	ctx, cancel := context.WithTimeout(parent, j.deadline)

	var call *flight[R]
	if j.stream != nil {
		// No coalescing: each streaming client gets its own frame cadence,
		// on a private flight nobody can join.
		call = newFlight[R]()
		defer context.AfterFunc(s.baseCtx, cancel)()
	} else {
		var leader bool
		if call, leader = ep.flights.join(j.key); !leader {
			// Wait for the leader's run under this request's own clock. The
			// run keeps going on the leader's ctx — one slow joiner times out
			// alone, it does not cancel the others.
			defer cancel()
			s.stats.coalesced.Add(1)
			rq.log.Outcome = "coalesced"
			select {
			case <-call.done:
				return call.res, true, call.err
			case <-ctx.Done():
				return out, true, s.ended(ctx, errJoinWait)
			case <-r.Context().Done():
				return out, true, errClientGone
			}
		}
	}

	pool, err := s.admit(ctx, rq)
	if err != nil {
		cancel()
		ep.flights.finish(j.key, call, out, errOverloaded)
		return out, false, err
	}
	rq.log.Outcome = ep.noun

	// The trace rides the run context into the backend (the shard
	// coordinator reads it there); coalesced joiners see the leader's
	// trace on the spans, which is where the work actually ran.
	trace := rq.log.Trace
	ctx = reqtrace.NewContext(ctx, trace)
	// The run is its own goroutine so the pool is reclaimed, the result
	// cached and the flight settled no matter how this waiter's response
	// went (timed out, shut down, hung up).
	go func() {
		defer cancel()
		runStart := time.Now()
		res, err := j.run(ctx, pool)
		note := "ok"
		if err != nil {
			note = "err: " + err.Error()
		}
		s.cfg.Tracer.Record(reqtrace.Span{
			Trace: trace, Stage: reqtrace.StageSearch,
			StartNs: runStart.UnixNano(), DurNs: time.Since(runStart).Nanoseconds(),
			Note: note,
		})
		s.free <- pool
		if err == nil && (ep.keep == nil || ep.keep(res)) {
			ep.cache.put(j.key, res)
		}
		ep.flights.finish(j.key, call, res, err)
	}()

	var tick, backstop <-chan time.Time
	if j.stream != nil {
		j.stream.start()
		t := time.NewTicker(j.stream.every)
		defer t.Stop()
		tick = t.C
	}
	expired := ctx.Done()
	for {
		select {
		case <-call.done:
			return call.res, false, call.err
		case <-tick:
			if p := j.progress(); p != nil && j.stream.frame("progress", p) != nil {
				cancel() // client gone: stop the run; its goroutine settles and parks
				return out, false, errClientGone
			}
		case <-expired:
			// The run goroutine cancels ctx on its way out, after settling:
			// a settled flight is the answer whatever else also ended.
			select {
			case <-call.done:
				return call.res, false, call.err
			default:
			}
			// Shutdown is answered now rather than racing the run's unwind,
			// and a vanished client needs no answer at all.
			if err := s.ended(ctx, context.DeadlineExceeded); err != context.DeadlineExceeded {
				return out, false, err
			}
			// Deadline: the run polls its ctx, so the settlement normally
			// follows within microseconds and carries the answer (a 504, or a
			// solve's partial 200). The backstop bounds the wait for a run
			// stuck in Position code that never polls (user-provided games can
			// do that): answer 504 and abandon it — the goroutine above
			// settles the flight and reclaims the pool if it ever surfaces.
			expired = nil
			grace := time.NewTimer(searchGrace)
			defer grace.Stop()
			backstop = grace.C
		case <-backstop:
			return out, false, context.DeadlineExceeded
		}
	}
}

// admit is the one admission step: take a queue slot (429 when the
// bounded queue is full), then wait for a pool token under the request
// clock. Only leaders and streams come here — coalesced joiners never
// hold queue slots.
func (s *Server) admit(ctx context.Context, rq *request) (*engine.Pool, error) {
	defer s.queued.Add(-1)
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		return nil, errQueueFull
	}
	waitStart := time.Now()
	var pool *engine.Pool
	select {
	case pool = <-s.free:
	case <-ctx.Done():
		return nil, s.ended(ctx, errPoolWait)
	}
	rq.log.QueueNs = time.Since(waitStart).Nanoseconds()
	s.stats.queueWaitNs.Observe(rq.log.QueueNs)
	s.stats.admitted.Add(1)
	s.cfg.Tracer.Record(reqtrace.Span{
		Trace: rq.log.Trace, Stage: reqtrace.StageQueue,
		StartNs: waitStart.UnixNano(), DurNs: rq.log.QueueNs,
	})
	return pool, nil
}

// ended names why a request clock stopped. Shutdown outranks the
// deadline (both can hold); timeout is what an expired deadline means at
// the calling wait; anything else is an attached clock's client hanging
// up.
func (s *Server) ended(ctx context.Context, timeout error) error {
	switch {
	case s.baseCtx.Err() != nil:
		return errShutdown
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return timeout
	}
	return errClientGone
}

// respondErr is the one error→status table: every failure of either
// endpoint — shed at a gate, timed out at a wait, or returned by a run —
// is counted and answered here. Overload answers carry the Retry-After
// hint. Once a stream is open the status line is gone, so the error rides
// inside the stream as its final frame.
func (s *Server) respondErr(w http.ResponseWriter, noun string, stream *ndjson, err error) {
	status, counter, msg := http.StatusInternalServerError, &s.stats.failed, err.Error()
	switch {
	case err == errClientGone:
		return // nobody to answer
	case err == errQueueFull, err == errOverloaded:
		status, counter = http.StatusTooManyRequests, &s.stats.rejectedQueue
	case err == errPoolWait:
		status, counter = http.StatusServiceUnavailable, &s.stats.deadlineExceeded
	case err == errDraining, err == errShutdown:
		status, counter = http.StatusServiceUnavailable, &s.stats.rejectedDraining
	case err == errJoinWait:
		status, counter, msg = http.StatusGatewayTimeout, &s.stats.deadlineExceeded, msg+" "+noun
	case errors.Is(err, context.DeadlineExceeded):
		status, counter, msg = http.StatusGatewayTimeout, &s.stats.deadlineExceeded, noun+" deadline exceeded"
	case errors.Is(err, engine.ErrCancelled), errors.Is(err, engine.ErrPoolClosed):
		status, counter, msg = http.StatusServiceUnavailable, &s.stats.rejectedDraining, noun+" cancelled by shutdown"
	}
	counter.Add(1)
	if stream != nil && stream.started {
		_ = stream.frame("error", noun+" failed: "+msg) // best effort: the status said 200 already
		return
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	writeJSON(w, status, errorResponse{msg})
}

// ndjson is a stream=true response: newline-delimited JSON frames, each a
// one-key object naming its kind (progress, result, error).
type ndjson struct {
	w       http.ResponseWriter
	every   time.Duration // progress frame interval
	started bool
}

// start commits the 200 and the content type; frames may follow.
func (n *ndjson) start() {
	if !n.started {
		n.started = true
		n.w.Header().Set("Content-Type", "application/x-ndjson")
		n.w.WriteHeader(http.StatusOK)
	}
}

// frame writes and flushes one frame, opening the stream if a cached
// answer got here before start. A write error means the client is gone.
func (n *ndjson) frame(kind string, v any) error {
	n.start()
	if err := json.NewEncoder(n.w).Encode(map[string]any{kind: v}); err != nil {
		return err
	}
	_ = http.NewResponseController(n.w).Flush() // unsupported = unbuffered enough
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// keyPosition strips the "<game>|" prefix off a position key, recovering
// the canonical position string for the response.
func keyPosition(posKey string) string {
	_, canon, _ := strings.Cut(posKey, "|")
	return canon
}
