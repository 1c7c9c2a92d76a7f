package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"gametree/internal/engine"
	"gametree/internal/reqtrace"
	"gametree/internal/serve"
	"gametree/internal/shard"
	"gametree/internal/telemetry"
	"gametree/internal/transport"
)

// reply is what one call returned, in the fields the benchmark checks and
// the counters it reads from outside.
type reply struct {
	value              int32
	verdict            string // solves only
	nodes, expands     int64
	queueMs, elapsedMs float64 // reported by the server; 0 for library calls
	cached, coalesced  bool
}

// env is one round's system under test: a fresh pool, server or ring, the
// function that sends it one op, and handles on its public counters.
type env struct {
	callers int
	// call sends op i and returns its reply; spans go to sb under parent.
	call  func(i int, o op, sb *spanBuf, parent int) (reply, error)
	close func()

	// Observers and counter handles; the recorders and tracers are
	// non-nil only in a traced round.
	rec        *telemetry.Recorder   // pools and serve counters
	workerRecs []*telemetry.Recorder // ring workers' pools
	tracers    []*reqtrace.Tracer    // serve/coordinator first, then workers
	server     *serve.Server
	coord      *shard.Coordinator
	coordRec   *telemetry.Recorder
	nets       []*transport.TCP
}

// envOpts selects the round's shape.
type envOpts struct {
	workers int  // compute workers per pool
	callers int  // closed-loop callers
	traced  bool // switch the repo's observers on
	// localRing serves the ring workload's requests from local pools with
	// the cache off: the baseline shard.added_latency_ms is taken against.
	localRing bool
}

// Bounds for the observers' buffers in a traced round: large enough that
// a full-size round never overwrites or drops a span.
const (
	traceSpans    = 1 << 17
	ringTableSize = 1 << 20 // gtserve's -table default, per worker
)

func (s *suite) startEnv(o envOpts) (*env, error) {
	switch s.w.kind {
	case "lib":
		return s.startLib(o), nil
	case "search", "solve":
		return s.startServe(o, serve.Config{Workers: o.workers}, &env{})
	case "ring":
		if o.localRing {
			return s.startServe(o, serve.Config{Workers: o.workers, CacheEntries: -1}, &env{})
		}
		return s.startRing(o)
	}
	return nil, fmt.Errorf("workload %s: unknown kind %q", s.w.name, s.w.kind)
}

// startLib: one resident pool, with the workload's table if it has one.
func (s *suite) startLib(o envOpts) *env {
	e := &env{callers: o.callers}
	if o.traced {
		e.rec = telemetry.NewRecorder()
		e.rec.EnableTrace(traceSpans)
	}
	var table *engine.Table
	if s.w.table > 0 {
		table = engine.NewTable(s.w.table)
	}
	pool := engine.NewPool(o.workers, table, e.rec)
	e.call = func(i int, op op, sb *spanBuf, parent int) (reply, error) {
		c := sb.begin("pool.search", parent, i)
		res, err := pool.Search(context.Background(), s.positions[op.Key], op.Depth)
		sb.end(c)
		return reply{value: res.Value, nodes: res.Nodes}, err
	}
	e.close = pool.Close
	return e
}

// startServe puts serve.Server behind a loopback HTTP listener, on top of
// whatever e already holds (the ring). In the narrow shape (one worker)
// the server gets one pool, so exactly one compute worker exists;
// otherwise Pools keeps its default.
func (s *suite) startServe(o envOpts, cfg serve.Config, e *env) (*env, error) {
	e.callers = o.callers
	inner := e.close
	if o.workers == 1 {
		cfg.Pools = 1
	}
	if o.traced {
		e.rec = telemetry.NewRecorder()
		e.rec.EnableTrace(traceSpans)
		cfg.Telemetry = e.rec
		if cfg.Tracer == nil {
			cfg.Tracer = reqtrace.New(0, "serve", 1, traceSpans)
			e.tracers = append(e.tracers, cfg.Tracer)
		}
	}
	e.server = serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if inner != nil {
			inner()
		}
		return nil, fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: e.server.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns ErrServerClosed on Close
	}()
	tr := &http.Transport{MaxIdleConnsPerHost: o.callers}
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	path := "/v1/search"
	if s.w.kind == "solve" {
		path = "/v1/solve"
	}
	url := "http://" + ln.Addr().String() + path
	e.call = func(i int, op op, sb *spanBuf, parent int) (reply, error) {
		return httpCall(client, url, s.w.kind == "solve", i, op, sb, parent)
	}
	e.close = func() {
		tr.CloseIdleConnections()
		_ = hs.Close()
		<-served
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.server.Drain(ctx) // every caller has its reply already
		cancel()
		if inner != nil {
			inner()
		}
	}
	return e, nil
}

// solveDeadlineMs is far above the slowest solve seen (≈0.1 s), so that no
// solve comes back partial; a partial verdict would count as a failure.
const solveDeadlineMs = 20000

func httpCall(client *http.Client, url string, solve bool, i int, o op, sb *spanBuf, parent int) (reply, error) {
	enc := sb.begin("encode", parent, i)
	var body []byte
	var err error
	if solve {
		body, err = json.Marshal(serve.SolveRequest{Game: o.Game, Position: o.Pos, DeadlineMs: solveDeadlineMs})
	} else {
		body, err = json.Marshal(serve.SearchRequest{Game: o.Game, Position: o.Pos, Depth: o.Depth})
	}
	sb.end(enc)
	if err != nil {
		return reply{}, err
	}

	c := sb.begin("http.roundtrip", parent, i)
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		sb.end(c)
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sb.end(c)
	callEnd := time.Now()
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}

	d := sb.begin("decode", parent, i)
	var r reply
	if solve {
		var sr serve.SolveResponse
		err = json.Unmarshal(data, &sr)
		r = reply{verdict: sr.Verdict, nodes: sr.Nodes, expands: sr.Expands,
			queueMs: sr.QueueMs, elapsedMs: sr.ElapsedMs, cached: sr.Cached, coalesced: sr.Coalesced}
	} else {
		var sr serve.SearchResponse
		err = json.Unmarshal(data, &sr)
		r = reply{value: sr.Value, nodes: sr.Nodes,
			queueMs: sr.QueueMs, elapsedMs: sr.ElapsedMs, cached: sr.Cached, coalesced: sr.Coalesced}
	}
	sb.end(d)
	if err != nil {
		return reply{}, fmt.Errorf("decode reply: %w", err)
	}
	if sb != nil {
		// elapsed_ms covers the server's whole handling, queue wait
		// included; the search is what remains.
		ms := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
		sb.child("server.queue", c, i, callEnd.Add(-ms(r.elapsedMs-r.queueMs)), ms(r.queueMs))
		sb.child("server.search", c, i, callEnd, ms(r.elapsedMs-r.queueMs))
	}
	return r, nil
}

// startRing wires coordinator + workers over real TCP on 127.0.0.1 the way
// internal/shard's test cluster does, waits until every worker has heard
// the coordinator's hello, and puts serve.Server (cache off) in front.
func (s *suite) startRing(o envOpts) (*env, error) {
	n := 2
	if o.workers == 1 {
		n = 1 // narrow shape: one worker process with its one pool worker
	}
	e := &env{}
	procs := make([]int, n)
	addrs := make(map[int]string, n+1)
	for i := 0; i <= n; i++ {
		if i > 0 {
			procs[i-1] = i
		}
		tr, err := transport.New(transport.Config{Listen: "127.0.0.1:0", Local: []int{i}, Codec: shard.Codec{}})
		if err != nil {
			for _, t := range e.nets {
				t.Close()
			}
			return nil, fmt.Errorf("ring transport %d: %w", i, err)
		}
		e.nets = append(e.nets, tr)
		addrs[i] = tr.Addr()
	}
	for i, tr := range e.nets {
		for p, a := range addrs {
			if p != i {
				tr.SetPeer(p, a)
			}
		}
	}

	var coordTracer *reqtrace.Tracer
	if o.traced {
		e.coordRec = telemetry.NewRecorder()
		coordTracer = reqtrace.New(0, "coordinator", 1, traceSpans)
		e.tracers = append(e.tracers, coordTracer)
	}
	var ws []*shard.Worker
	for i := 1; i <= n; i++ {
		cfg := shard.WorkerConfig{
			Net: e.nets[i], Self: i, Coordinator: 0, Workers: procs,
			PoolWorkers: 1, TableEntries: ringTableSize,
			PingEvery: 100 * time.Millisecond, AdvertiseAddr: e.nets[i].Addr(),
		}
		if o.traced {
			rec := telemetry.NewRecorder()
			rec.EnableTrace(traceSpans)
			cfg.Telemetry = rec
			cfg.Tracer = reqtrace.New(i, "worker", 0, traceSpans)
			e.workerRecs = append(e.workerRecs, rec)
			e.tracers = append(e.tracers, cfg.Tracer)
		}
		w := shard.NewWorker(cfg)
		w.Start()
		ws = append(ws, w)
	}
	e.coord = shard.NewCoordinator(shard.Config{
		Net: e.nets[0], Self: 0, Workers: procs, ExpandDepth: 1,
		HelloEvery: 100 * time.Millisecond, PeerAddrs: addrs,
		Telemetry: e.coordRec, Tracer: coordTracer,
	})
	coordTracer.SetOffsets(e.coord.ClockOffsets)
	e.coord.Start()
	e.close = func() {
		e.coord.Close()
		for _, w := range ws {
			w.Close()
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for _, w := range ws {
		for w.Epoch() == 0 {
			if time.Now().After(deadline) {
				e.close()
				return nil, fmt.Errorf("ring: a worker heard no hello within 10s")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return s.startServe(o, serve.Config{Backend: e.coord, CacheEntries: -1, Tracer: coordTracer}, e)
}
