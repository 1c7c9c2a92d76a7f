package serve

// Serving-layer observability: request-path counters plus queue-wait and
// end-to-end latency histograms, exposed as gametree_serve_* families on
// the same /metrics endpoint as the engine telemetry (registered with
// the Recorder via AddPromSection). Counters are plain atomics — the
// request path is already orders of magnitude coarser-grained than the
// search hot path, so per-goroutine sharding would buy nothing.

import (
	"io"
	"sync/atomic"

	"gametree/internal/metrics"
	"gametree/internal/telemetry"
)

// serveStats is the counter block of one Server.
type serveStats struct {
	requests         atomic.Int64 // POST /v1/search received
	admitted         atomic.Int64 // leader searches granted a pool
	rejectedQueue    atomic.Int64 // 429: admission queue full
	rejectedDraining atomic.Int64 // 503: draining or shut down
	coalesced        atomic.Int64 // joined an identical in-flight search
	cacheHits        atomic.Int64 // served from the LRU result cache
	cacheMisses      atomic.Int64
	deadlineExceeded atomic.Int64 // 504: request deadline expired
	completed        atomic.Int64 // 200s (cached, coalesced or searched)
	degraded         atomic.Int64 // 200s answered in degraded mode (local fallback)
	failed           atomic.Int64 // 500: search error
	inflight         atomic.Int64 // requests between admission check and response
	solveRequests    atomic.Int64 // POST /v1/solve received
	solvePartial     atomic.Int64 // solves stopped before a verdict (parked for resume)
	solveResumed     atomic.Int64 // solves that continued a parked partial tree

	queueWaitNs metrics.Histogram // leader wait for a free pool
	latencyNs   metrics.Histogram // full request latency, all outcomes
}

// counters is the one list of request-path counters: Stats reports each
// under its key, /metrics as gametree_serve_<key>_total. The fixed order
// keeps the exposition deterministic (and therefore diffable in CI
// artifacts).
func (s *serveStats) counters() []counter {
	return []counter{
		{"requests", "Search requests received.", &s.requests},
		{"admitted", "Leader searches granted an engine pool.", &s.admitted},
		{"rejected_queue", "Requests shed with 429: admission queue full.", &s.rejectedQueue},
		{"rejected_draining", "Requests shed with 503: server draining.", &s.rejectedDraining},
		{"coalesced", "Requests coalesced onto an identical in-flight search.", &s.coalesced},
		{"cache_hits", "Requests served from the result cache.", &s.cacheHits},
		{"cache_misses", "Requests that missed the result cache.", &s.cacheMisses},
		{"deadline_exceeded", "Requests that exceeded their deadline (504).", &s.deadlineExceeded},
		{"completed", "Requests answered 200.", &s.completed},
		{"degraded", "Requests answered 200 in degraded mode (shard ring empty, local fallback).", &s.degraded},
		{"failed", "Requests answered 500 (search error).", &s.failed},
		{"solve_requests", "Solve requests received.", &s.solveRequests},
		{"solve_partial", "Solves stopped before a verdict and parked for resume.", &s.solvePartial},
		{"solve_resumed", "Solves that continued a parked partial tree.", &s.solveResumed},
	}
}

type counter struct {
	key, help string
	v         *atomic.Int64
}

// writeProm writes the gametree_serve_* families.
func (s *serveStats) writeProm(w io.Writer) error {
	for _, c := range s.counters() {
		if err := telemetry.PromCounter(w, "gametree_serve_"+c.key+"_total", c.help, c.v.Load()); err != nil {
			return err
		}
	}
	if err := telemetry.PromGauge(w, "gametree_serve_inflight",
		"Requests currently between admission check and response.", s.inflight.Load()); err != nil {
		return err
	}
	if err := telemetry.PromHistogram(w, "gametree_serve_queue_wait_ns",
		"Leader wait for a free engine pool, nanoseconds.", s.queueWaitNs.Snapshot()); err != nil {
		return err
	}
	return telemetry.PromHistogram(w, "gametree_serve_latency_ns",
		"End-to-end request latency, nanoseconds.", s.latencyNs.Snapshot())
}

// writeMemory writes the gametree_memory_bytes family: the shared
// table's slab (0 until its first store, and on a backend server, which
// has no table) and the parked-solver store's estimated trees.
func (s *Server) writeMemory(w io.Writer) error {
	return telemetry.PromMemory(w,
		telemetry.MemoryOwner{Owner: "table", Bytes: s.table.Bytes()},
		telemetry.MemoryOwner{Owner: "solve_store", Bytes: s.parked.bytes()})
}
