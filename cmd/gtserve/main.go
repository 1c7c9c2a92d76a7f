// Command gtserve runs the resident search service: a fixed set of warm
// engine pools over one shared transposition table behind an HTTP JSON
// API, with admission control, request coalescing and a result cache
// (package serve has the full semantics).
//
// Usage:
//
//	gtserve -addr :8080
//	gtserve -addr 127.0.0.1:0 -portfile /tmp/gtserve.port
//	                # bind an ephemeral port and publish the bound
//	                # address for a harness to read (CI smoke test)
//	gtserve -pools 2 -workers 4 -queue 64 -cache 4096
//
// Distributed roles (package shard has the full semantics):
//
//	gtserve -role worker -shard-proc 1 -shard-listen 127.0.0.1:0 \
//	        -shard-portfile /tmp/w1.shard -shard-peers 0=<coord>
//	                # resident pool behind the shard protocol; the HTTP
//	                # address serves /metrics and /healthz only
//	gtserve -role coordinator -shard-listen 127.0.0.1:0 \
//	        -shard-peers 1=<w1>,2=<w2> -expand-depth 1
//	                # the HTTP API with searches expanded at the root
//	                # and fanned out to the workers by consistent hash
//	                # with bounded loads while the ring has spare
//	                # workers; a busy ring ships each root whole
//
// Endpoints:
//
//	POST /v1/search   {"game","position","depth","deadline_ms"}
//	GET  /healthz     200 serving | 503 draining
//	GET  /metrics     Prometheus text exposition (engine + serve + shard)
//
// On SIGINT/SIGTERM the server drains: new requests are shed with 503,
// in-flight requests finish (or are cancelled when -drain-grace runs
// out, still receiving a 5xx response), then the process exits — 0 for a
// clean drain, 1 for a forced one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"gametree/internal/reqtrace"
	"gametree/internal/serve"
	"gametree/internal/telemetry"
)

// options is the parsed flag set, shared by the three roles.
type options struct {
	role     string
	addr     string
	portFile string

	workers      int
	pools        int
	queueDepth   int
	tableSize    int
	cacheEntries int
	deadline     time.Duration
	maxDeadline  time.Duration
	maxDepth     int
	drainGrace   time.Duration
	solveNodes   int64
	solveStore   int

	shardListen   string
	shardPortFile string
	shardPeers    string
	shardProc     int
	shardProcs    string
	expandDepth   int
	taskTimeout   time.Duration
	deadAfter     time.Duration
	taskRetries   int
	localFallback bool

	traceSample int
	accessLog   string
	pprof       bool
}

func main() {
	var o options
	flag.StringVar(&o.role, "role", "single", "process role: single | coordinator | worker")
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "HTTP listen address (host:port; port 0 = ephemeral)")
	flag.StringVar(&o.portFile, "portfile", "", "write the bound HTTP address to this file once listening")
	flag.IntVar(&o.workers, "workers", 0, "workers per engine pool (0 = GOMAXPROCS)")
	flag.IntVar(&o.pools, "pools", 2, "resident engine pools (max concurrent searches)")
	queue := flag.Int("queue", 64, "admission queue depth before 429 (-1 = no queue)")
	flag.IntVar(&o.tableSize, "table", 1<<20, "shared transposition table entries; memory is taken on the first store")
	cacheSize := flag.Int("cache", 4096, "result cache entries (-1 = disable)")
	flag.DurationVar(&o.deadline, "deadline", 2*time.Second, "default per-request deadline")
	flag.DurationVar(&o.maxDeadline, "maxdeadline", 30*time.Second, "cap on client-requested deadlines")
	flag.IntVar(&o.maxDepth, "maxdepth", 16, "maximum request depth")
	flag.DurationVar(&o.drainGrace, "drain-grace", 10*time.Second, "how long to wait for in-flight requests on shutdown")
	flag.Int64Var(&o.solveNodes, "solve-max-nodes", 0, "cap on the nodes of one /v1/solve proof tree, resumed or not, and the default request budget (0 = server default)")
	flag.IntVar(&o.solveStore, "solve-store", 0, "parked partial solvers kept for resume, their trees together within one tree at -solve-max-nodes (0 = server default)")

	flag.StringVar(&o.shardListen, "shard-listen", "127.0.0.1:0", "coordinator/worker: shard transport listen address")
	flag.StringVar(&o.shardPortFile, "shard-portfile", "", "coordinator/worker: write the bound shard transport address here")
	flag.StringVar(&o.shardPeers, "shard-peers", "", "coordinator/worker: comma-separated proc=host:port shard peer table (proc 0 = coordinator)")
	flag.IntVar(&o.shardProc, "shard-proc", 0, "worker: this process's shard processor id (> 0)")
	flag.StringVar(&o.shardProcs, "shard-procs", "", "comma-separated worker processor ids forming the ring (default: derived from -shard-peers); must agree across all processes")
	flag.IntVar(&o.expandDepth, "expand-depth", 1, "coordinator: plies expanded before the frontier is searched, eldest leaf first and its brothers on the window it leaves; the expansion happens at the coordinator when the ring has spare workers, otherwise at the worker the whole root ships to")
	flag.DurationVar(&o.taskTimeout, "task-timeout", 2*time.Second, "coordinator: per-task reissue timeout (base of the retry backoff)")
	flag.DurationVar(&o.deadAfter, "dead-after", 3*time.Second, "coordinator: declare a worker dead after this much ping silence")
	flag.IntVar(&o.taskRetries, "task-retries", 6, "coordinator: reissues per task before it is quarantined")
	flag.BoolVar(&o.localFallback, "local-fallback", true, "coordinator: compute leaves on a resident local pool when the ring is empty or a task exhausts its retries (degraded mode, exact answers)")

	flag.IntVar(&o.traceSample, "trace-sample", 0, "record request spans for 1-in-N headerless requests (0 = only requests with an X-GT-Trace header, 1 = all)")
	flag.StringVar(&o.accessLog, "access-log", "", "append one JSON line per request to this file")
	flag.BoolVar(&o.pprof, "pprof", true, "mount net/http/pprof handlers under /debug/pprof/")
	flag.Parse()

	o.queueDepth = *queue
	if o.queueDepth < 0 {
		o.queueDepth = -1 // Config: negative = no queue
	}
	o.cacheEntries = *cacheSize
	if o.cacheEntries < 0 {
		o.cacheEntries = -1 // Config: negative = disabled
	}

	switch o.role {
	case "single":
		os.Exit(runSingle(o))
	case "coordinator":
		os.Exit(runCoordinator(o))
	case "worker":
		os.Exit(runWorker(o))
	default:
		fmt.Fprintf(os.Stderr, "gtserve: unknown -role %q (want single, coordinator or worker)\n", o.role)
		os.Exit(2)
	}
}

func runSingle(o options) int {
	rec := telemetry.NewRecorder()
	tracer := reqtrace.New(0, "single", o.traceSample, 0)
	rec.AddPromSection(telemetry.BuildInfoSection())
	rec.AddPromSection(tracer.PromSection())
	accessLog, closeLog, err := openAccessLog(o.accessLog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtserve:", err)
		return 1
	}
	defer closeLog()
	srv := serve.New(serve.Config{
		Workers:           o.workers,
		Pools:             o.pools,
		QueueDepth:        o.queueDepth,
		TableEntries:      o.tableSize,
		CacheEntries:      o.cacheEntries,
		DefaultDeadline:   o.deadline,
		MaxDeadline:       o.maxDeadline,
		MaxDepth:          o.maxDepth,
		SolveMaxNodes:     o.solveNodes,
		SolveStoreEntries: o.solveStore,
		Telemetry:         rec,
		Tracer:            tracer,
		AccessLog:         accessLog,
	})
	return serveHTTP(srv, o)
}

// openAccessLog opens (appending) the -access-log file. An empty path
// disables the log: nil writer, no-op closer.
func openAccessLog(path string) (io.Writer, func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("access log: %w", err)
	}
	return f, func() { f.Close() }, nil
}

// withPprof wraps a handler with the explicit net/http/pprof mux (the
// blank-import default-mux route would leak the handlers into every
// process importing this package).
func withPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveHTTP runs the HTTP service (single or coordinator role) through
// its full lifecycle: listen, publish the port, serve, drain on signal.
func serveHTTP(srv *serve.Server, o options) int {
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtserve:", err)
		return 1
	}
	bound := ln.Addr().String()
	if o.portFile != "" {
		if err := os.WriteFile(o.portFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "gtserve: portfile:", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "gtserve: listening on %s (role=%s pools=%d workers=%d queue=%d)\n",
		bound, o.role, o.pools, o.workers, o.queueDepth)

	handler := srv.Handler()
	if o.pprof {
		handler = withPprof(handler)
	}
	hs := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "gtserve:", err)
		return 1
	}
	stop()

	fmt.Fprintf(os.Stderr, "gtserve: draining (grace %s)\n", o.drainGrace)
	dctx, cancel := context.WithTimeout(context.Background(), o.drainGrace)
	defer cancel()
	drainErr := srv.Drain(dctx)

	// The handlers have all answered; close the listener and idle conns.
	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	if err := hs.Shutdown(shCtx); err != nil {
		hs.Close()
	}

	stats := srv.Stats()
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "gtserve: %-18s %d\n", k, stats[k])
	}

	if drainErr != nil && !errors.Is(drainErr, context.Canceled) {
		fmt.Fprintln(os.Stderr, "gtserve: forced drain:", drainErr)
		return 1
	}
	fmt.Fprintln(os.Stderr, "gtserve: clean drain")
	return 0
}
