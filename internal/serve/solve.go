package serve

// POST /v1/solve: proof-number solving as an ordinary request on the
// pipeline /v1/search runs on (pipeline.go) — this file is only the
// endpoint's decode, run func and render. Differences that matter:
//
//   - A solve answers a win/loss question; the response carries a
//     verdict plus the root proof/disproof numbers instead of a score.
//   - Long solves can stream: stream=true switches the response to
//     newline-delimited JSON progress frames (root pn/dn, node counts,
//     frontier depth) followed by one final result frame. The pipeline
//     runs a streaming request attached to the client connection, so a
//     client disconnect cancels the solve and releases the pool workers
//     promptly (the solve-smoke CI job asserts exactly this via the
//     pns counters on /metrics).
//   - A deadline does not produce a 504: the solver's partial tree is
//     parked in a store keyed by canonical position, bounded in bytes,
//     and the response is a 200 with partial=true and the best-so-far
//     numbers. A later request for the same position checks the parked
//     solver out and resumes where it stopped. A tree that reached the
//     server's node cap could not grow on resume: it is dropped, and the
//     answer, status budget_exhausted, is final. Only final answers
//     (verdicts and budget_exhausted) are cached.
//
// Solving requires the local pool substrate; a Backend (shard
// coordinator) deployment answers 501.

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"gametree/internal/engine"
	"gametree/internal/pns"
)

// SolveRequest is the POST /v1/solve body.
type SolveRequest struct {
	Game     string `json:"game"`     // any registered game; nim and kayles are the natural fits
	Position string `json:"position"` // game-specific encoding (see README)
	// DeadlineMs overrides the default per-request deadline, clamped to
	// the configured maximum. On expiry the response is a 200 partial,
	// not a 504 — see Partial below.
	DeadlineMs int `json:"deadline_ms,omitempty"`
	// MaxNodes bounds the nodes the solve adds to its proof tree (0 =
	// server cap; clamped to it otherwise). A budget-stopped solve
	// returns partial=true. A resumed tree never grows past the server
	// cap, however many requests resume it.
	MaxNodes int64 `json:"max_nodes,omitempty"`
	// Stream switches the response to newline-delimited JSON: progress
	// frames every ProgressMs, then one result frame.
	Stream bool `json:"stream,omitempty"`
	// ProgressMs is the streaming frame interval (0 = 100ms).
	ProgressMs int `json:"progress_ms,omitempty"`
}

// SolveResponse is the result payload — the whole 200 body for unary
// requests, the final frame's "result" field for streaming ones.
type SolveResponse struct {
	Game     string `json:"game"`
	Position string `json:"position"` // canonical form
	// Verdict is "proven" (the side to move wins), "disproven" (loses),
	// or "unknown" (stopped on budget or deadline; see Partial).
	Verdict string `json:"verdict"`
	// PN and DN are the root proof/disproof numbers; 4294967295 stands
	// for infinity. A proven root has pn=0, a disproven one dn=0.
	PN            uint32  `json:"pn"`
	DN            uint32  `json:"dn"`
	Nodes         int64   `json:"nodes"`
	Expands       int64   `json:"expands"`
	FrontierDepth int64   `json:"frontier_depth"`
	ElapsedMs     float64 `json:"elapsed_ms"`
	QueueMs       float64 `json:"queue_ms,omitempty"`
	Cached        bool    `json:"cached,omitempty"`
	Coalesced     bool    `json:"coalesced,omitempty"`
	// Partial marks a solve stopped before a verdict (deadline or node
	// budget). The partial tree is retained server-side: repeating the
	// request resumes it (Resumed on the follow-up response).
	Partial bool `json:"partial,omitempty"`
	// Resumed marks a solve that continued a previously parked partial
	// tree rather than starting fresh.
	Resumed bool `json:"resumed,omitempty"`
	// Status is set when the solve ended for good without a verdict:
	// SolveBudgetExhausted.
	Status SolveStatus `json:"status,omitempty"`
}

// SolveStatus types a final solve answer that carries no verdict.
type SolveStatus string

// SolveBudgetExhausted: the proof tree reached the server's node cap
// (Config.SolveMaxNodes) without a verdict. A resume could not grow it,
// so the tree is dropped rather than parked, and repeats of the position
// get this answer from the result cache.
const SolveBudgetExhausted SolveStatus = "budget_exhausted"

// SolveProgress is one streaming progress frame (wrapped as
// {"progress": {...}} on the wire; the final frame is {"result": {...}}).
type SolveProgress struct {
	PN            uint32  `json:"pn"`
	DN            uint32  `json:"dn"`
	Nodes         int64   `json:"nodes"`
	Expands       int64   `json:"expands"`
	FrontierDepth int64   `json:"frontier_depth"`
	ElapsedMs     float64 `json:"elapsed_ms"`
}

// solveOutcome is the settled state of one solve flight.
type solveOutcome struct {
	verdict   pns.Verdict
	progress  pns.Progress
	partial   bool // parked for resume
	exhausted bool // at the node cap without a verdict, dropped
	resumed   bool
}

// solveProgressInterval is the default streaming frame cadence.
const solveProgressInterval = 100 * time.Millisecond

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.stats.solveRequests.Add(1)
	w, rq := s.begin(w, r)
	defer s.end(&rq)
	if s.cfg.Backend != nil && r.Method == http.MethodPost { // a GET still gets decode's 405
		writeJSON(w, http.StatusNotImplemented, errorResponse{"solve requires local pools (shard backend configured)"})
		return
	}
	var req SolveRequest
	if !decode(w, r, &req) {
		return
	}
	pos, posKey, err := ParsePosition(req.Game, req.Position)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	rq.log.Game, rq.log.Pos = req.Game, keyPosition(posKey)
	if !s.enter(&rq) {
		s.respondErr(w, "solve", nil, errDraining)
		return
	}

	var stream *ndjson
	if req.Stream {
		stream = &ndjson{w: w, every: solveProgressInterval}
		if req.ProgressMs > 0 {
			stream.every = time.Duration(req.ProgressMs) * time.Millisecond
		}
	}
	var coalesced bool
	out, cached := lookup(s, &s.solve, &rq, posKey)
	if !cached {
		sj := &solveJob{s: s, posKey: posKey, pos: pos, maxNodes: req.MaxNodes, start: rq.start}
		if sj.maxNodes <= 0 || sj.maxNodes > s.cfg.SolveMaxNodes {
			sj.maxNodes = s.cfg.SolveMaxNodes
		}
		out, coalesced, err = execute(s, &s.solve, r, &rq, job[solveOutcome]{
			key: posKey, deadline: s.deadline(req.DeadlineMs), run: sj.run,
			stream: stream, progress: sj.progress,
		})
		if err != nil {
			s.respondErr(w, "solve", stream, err)
			return
		}
		if !coalesced {
			switch {
			case out.partial:
				rq.log.Outcome = "partial"
			case out.exhausted:
				rq.log.Outcome = string(SolveBudgetExhausted)
			}
		}
	}
	s.stats.completed.Add(1)
	resp := SolveResponse{
		Game: req.Game, Position: rq.log.Pos,
		Verdict: out.verdict.String(), PN: out.progress.PN, DN: out.progress.DN,
		Nodes: out.progress.Nodes, Expands: out.progress.Expands, FrontierDepth: out.progress.FrontierDepth,
		ElapsedMs: float64(time.Since(rq.start).Nanoseconds()) / 1e6,
		QueueMs:   float64(rq.log.QueueNs) / 1e6,
		Cached:    cached, Coalesced: coalesced, Partial: out.partial, Resumed: out.resumed,
	}
	if out.exhausted {
		resp.Status = SolveBudgetExhausted
	}
	if stream != nil {
		_ = stream.frame("result", resp) // a failed write means nobody is reading
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// solveJob is one cache-missed solve: its run func, and the handle a
// streaming request's progress sampler reads the live solver through.
type solveJob struct {
	s        *Server
	posKey   string
	pos      engine.Position
	maxNodes int64
	start    time.Time
	solver   atomic.Pointer[pns.Solver] // set once run has a solver
}

// run checks out (or creates) the solver for the position, runs it on
// pool, and re-parks it when it stops without a verdict below the node
// cap — for unary and streaming solves alike. A tree at the cap is
// dropped: it could never grow again. A deadline expiry is not an error
// here: the caller answers 200 with the partial state — that is the
// /v1/solve contract. Nor is any cancellation that lands after the root
// was decided: a verdict is final however its request ended, so it is
// returned (and cached) rather than lost. Other failures (drain, pool
// close, panic) surface as errors.
func (j *solveJob) run(ctx context.Context, pool *engine.Pool) (solveOutcome, error) {
	s := j.s
	// take is a checkout: two concurrent requests can never run one solver
	// at once (the loser starts fresh and leans on the shared
	// transposition table instead).
	solver, resumed := s.parked.take(j.posKey)
	if resumed {
		s.stats.solveResumed.Add(1)
		// The request budget is incremental on resume, but the tree as a
		// whole stays under the server cap: that bounds its memory. A
		// parked tree is below the cap, so the resume can grow it.
		solver.SetMaxNodes(min(solver.Progress().TreeNodes+j.maxNodes, s.cfg.SolveMaxNodes))
	} else {
		solver = pns.New(j.pos, pns.Options{Table: s.table, MaxNodes: j.maxNodes})
	}
	j.solver.Store(solver)
	res, err := solver.SolveParallel(ctx, pool)
	out := solveOutcome{verdict: res.Verdict, progress: solver.Progress(), resumed: resumed}
	switch {
	case res.Verdict != pns.Unknown:
	case out.progress.TreeNodes >= s.cfg.SolveMaxNodes:
		out.exhausted = true
	default:
		out.partial = true
		s.parked.put(j.posKey, solver)
		s.stats.solvePartial.Add(1)
	}
	if errors.Is(err, context.DeadlineExceeded) || (!out.partial && errors.Is(err, engine.ErrCancelled)) {
		err = nil
	}
	return out, err
}

// progress samples the live solver for one streaming frame.
func (j *solveJob) progress() any {
	solver := j.solver.Load()
	if solver == nil {
		return nil // admitted, but run has not checked a solver out yet
	}
	p := solver.Progress()
	return SolveProgress{
		PN: p.PN, DN: p.DN, Nodes: p.Nodes, Expands: p.Expands,
		FrontierDepth: p.FrontierDepth,
		ElapsedMs:     float64(time.Since(j.start).Nanoseconds()) / 1e6,
	}
}
