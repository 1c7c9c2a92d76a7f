package main

// Shard-role plumbing for gtserve: flag parsing for the peer table and
// the coordinator/worker runners. The single-process role lives in
// main.go and is untouched by any of this.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gametree/internal/engine"
	"gametree/internal/reqtrace"
	"gametree/internal/serve"
	"gametree/internal/shard"
	"gametree/internal/telemetry"
	"gametree/internal/transport"
)

// parsePeers parses "0=127.0.0.1:7000,1=127.0.0.1:7001" into a proc →
// address map.
func parsePeers(spec string) (map[int]string, error) {
	peers := make(map[int]string)
	if spec == "" {
		return peers, nil
	}
	for _, part := range strings.Split(spec, ",") {
		procStr, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("peer %q: want proc=host:port", part)
		}
		proc, err := strconv.Atoi(procStr)
		if err != nil {
			return nil, fmt.Errorf("peer %q: %w", part, err)
		}
		if _, dup := peers[proc]; dup {
			return nil, fmt.Errorf("peer %q: duplicate proc %d", part, proc)
		}
		peers[proc] = addr
	}
	return peers, nil
}

// workerProcs resolves the ring membership. The explicit -shard-procs
// list wins (and is mandatory for workers that learn their peers from
// hellos rather than flags — every process must agree on the ring, or
// a worker reports a membership the coordinator does not route by);
// otherwise membership is derived
// from the peer table: every proc id above 0 (0 is the coordinator by
// convention), plus self when self is a worker.
func workerProcs(spec string, peers map[int]string, self int) ([]int, error) {
	if spec != "" {
		var procs []int
		seen := map[int]bool{}
		for _, part := range strings.Split(spec, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, fmt.Errorf("-shard-procs %q: %w", spec, err)
			}
			if p <= 0 || seen[p] {
				return nil, fmt.Errorf("-shard-procs %q: ids must be positive and distinct", spec)
			}
			seen[p] = true
			procs = append(procs, p)
		}
		sort.Ints(procs)
		return procs, nil
	}
	set := map[int]bool{}
	for p := range peers {
		if p > 0 {
			set[p] = true
		}
	}
	if self > 0 {
		set[self] = true
	}
	procs := make([]int, 0, len(set))
	for p := range set {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	return procs, nil
}

// newShardTransport builds the TCP transport for one shard process and
// optionally publishes its bound address.
func newShardTransport(listen, portFile string, self int, peers map[int]string) (*transport.TCP, error) {
	tr, err := transport.New(transport.Config{
		Listen: listen,
		Local:  []int{self},
		Peers:  peers,
		Codec:  shard.Codec{},
	})
	if err != nil {
		return nil, err
	}
	if portFile != "" {
		if err := os.WriteFile(portFile, []byte(tr.Addr()+"\n"), 0o644); err != nil {
			tr.Close()
			return nil, fmt.Errorf("shard portfile: %w", err)
		}
	}
	return tr, nil
}

// runCoordinator runs the HTTP service with the shard coordinator as its
// search backend and blocks until shutdown. Returns the exit code.
func runCoordinator(o options) int {
	peers, err := parsePeers(o.shardPeers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtserve:", err)
		return 2
	}
	procs, err := workerProcs(o.shardProcs, peers, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtserve:", err)
		return 2
	}
	if len(procs) == 0 {
		fmt.Fprintln(os.Stderr, "gtserve: coordinator needs -shard-peers with at least one worker (proc > 0)")
		return 2
	}
	rec := telemetry.NewRecorder()
	tr, err := newShardTransport(o.shardListen, o.shardPortFile, 0, peers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtserve:", err)
		return 1
	}
	peersWithSelf := map[int]string{0: tr.Addr()}
	for p, a := range peers {
		peersWithSelf[p] = a
	}
	tracer := reqtrace.New(0, "coordinator", o.traceSample, 0)
	// The degraded-mode pool must outlive the coordinator (which may hold
	// in-flight local searches at Close), so its defer registers first.
	var fallback *engine.Pool
	if o.localFallback {
		fallback = engine.NewPool(o.workers, nil, nil)
		defer fallback.Close()
	}
	coord := shard.NewCoordinator(shard.Config{
		Net:         tr,
		Self:        0,
		Workers:     procs,
		ExpandDepth: o.expandDepth,
		TaskTimeout: o.taskTimeout,
		DeadAfter:   o.deadAfter,
		RetryBudget: o.taskRetries,
		Fallback:    fallback,
		PeerAddrs:   peersWithSelf,
		Telemetry:   rec,
		Tracer:      tracer,
	})
	// The coordinator's ping-echo estimates ride the trace dump so gtobs
	// can align worker clocks at merge time.
	tracer.SetOffsets(coord.ClockOffsets)
	rec.AddPromSection(telemetry.BuildInfoSection())
	rec.AddPromSection(tracer.PromSection())
	rec.AddPromSection(coord.PromSection())
	coord.Start()
	defer coord.Close()

	accessLog, closeLog, err := openAccessLog(o.accessLog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtserve:", err)
		return 1
	}
	defer closeLog()

	fmt.Fprintf(os.Stderr, "gtserve: coordinator proc 0 on %s, workers %v, expand %d plies\n",
		tr.Addr(), procs, o.expandDepth)
	srv := serve.New(serve.Config{
		Pools:           o.pools,
		QueueDepth:      o.queueDepth,
		CacheEntries:    o.cacheEntries,
		DefaultDeadline: o.deadline,
		MaxDeadline:     o.maxDeadline,
		MaxDepth:        o.maxDepth,
		Telemetry:       rec,
		Backend:         coord,
		Tracer:          tracer,
		AccessLog:       accessLog,
	})
	return serveHTTP(srv, o)
}

// runWorker runs one shard worker: the resident pool behind the shard
// protocol, with /metrics and /healthz on the HTTP address for
// observability. Blocks until SIGINT/SIGTERM. Returns the exit code.
func runWorker(o options) int {
	if o.shardProc <= 0 {
		fmt.Fprintln(os.Stderr, "gtserve: worker needs -shard-proc > 0")
		return 2
	}
	peers, err := parsePeers(o.shardPeers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtserve:", err)
		return 2
	}
	procs, err := workerProcs(o.shardProcs, peers, o.shardProc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtserve:", err)
		return 2
	}
	rec := telemetry.NewRecorder()
	tr, err := newShardTransport(o.shardListen, o.shardPortFile, o.shardProc, peers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtserve:", err)
		return 1
	}
	tracer := reqtrace.New(o.shardProc, "worker", o.traceSample, 0)
	w := shard.NewWorker(shard.WorkerConfig{
		Net:           tr,
		Self:          o.shardProc,
		Coordinator:   0,
		Workers:       procs,
		PoolWorkers:   o.workers,
		TableEntries:  o.tableSize,
		AdvertiseAddr: tr.Addr(),
		Telemetry:     rec,
		Tracer:        tracer,
	})
	rec.AddPromSection(telemetry.BuildInfoSection())
	rec.AddPromSection(tracer.PromSection())
	rec.AddPromSection(w.PromSection())
	w.Start()
	fmt.Fprintf(os.Stderr, "gtserve: worker proc %d on %s, ring %v\n", o.shardProc, tr.Addr(), procs)

	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.PromHandler(rec))
	mux.Handle("/debug/gttrace", reqtrace.Handler(tracer))
	if o.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(rw, "{\"status\":\"ok\",\"role\":\"worker\",\"proc\":%d}\n", o.shardProc)
	})
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtserve:", err)
		w.Close()
		return 1
	}
	if o.portFile != "" {
		if err := os.WriteFile(o.portFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "gtserve: portfile:", err)
			w.Close()
			return 1
		}
	}
	hs := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "gtserve:", err)
		w.Close()
		return 1
	}
	stop()
	fmt.Fprintln(os.Stderr, "gtserve: worker shutting down")
	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	_ = hs.Shutdown(shCtx)
	w.Close()
	return 0
}
