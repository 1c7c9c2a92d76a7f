// Command gtload drives load at a gtserve instance (or at the engine
// directly, for a baseline) and reports completed-request throughput,
// latency quantiles and shed rates. It is the measurement half of the
// serving experiment: the same workload run with -baseline (one
// SearchParallelTT call per request, shared table, no residency, no
// coalescing) and with -url (the resident service) produces two runs in
// one benchfmt document whose rows align by Item key, so
// `gtstat -metric qps` gates the service against the baseline.
//
// Usage:
//
//	gtload -url http://127.0.0.1:8080 -duration 5s -clients 8
//	gtload -baseline -duration 5s -clients 8 -out BENCH_serve.json
//	gtload -url ... -qps 200 -maxinflight 64      # open loop
//	gtload -url ... -game ttt -depth 9 -expect 0  # exact-value assert
//
// The workload is a position mix: each request picks a position from a
// fixed hot set with probability -dup (these coalesce and cache on the
// server), otherwise a fresh never-repeated position. Generation is
// deterministic per -seed, so baseline and serve runs measure the same
// request stream.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gametree/internal/benchfmt"
	"gametree/internal/engine"
	"gametree/internal/metrics"
	"gametree/internal/pns"
	"gametree/internal/serve"
)

type config struct {
	url      string
	baseline bool
	solve    bool
	game     string
	depth    int
	branch   int
	hot      int
	dup      float64
	seed     int64

	clients     int
	qps         float64
	maxInflight int
	duration    time.Duration
	deadline    time.Duration
	workers     int

	shards int

	expect    int64
	hasExpect bool
	out       string
	label     string
	chaos     bool

	trace string // X-GT-Trace prefix; "" = no header
}

// counters aggregates the run. Latency is recorded only for completed
// (2xx) requests; the error rate counts everything else, shed included.
type counters struct {
	issued    atomic.Int64
	completed atomic.Int64
	shed429   atomic.Int64
	shed503   atomic.Int64
	timeout   atomic.Int64 // 504 or engine deadline
	failed    atomic.Int64 // 5xx other / transport / engine error
	dropped   atomic.Int64 // open loop: client-side inflight cap hit
	cached    atomic.Int64
	coalesced atomic.Int64
	degraded  atomic.Int64 // 200s answered in degraded mode (ring empty, local fallback)
	nodes     atomic.Int64

	latency metrics.Histogram

	mu     sync.Mutex
	values map[string]int32 // position key -> root value (consistency check)
	badkey string           // first inconsistency, "" when clean
}

func (c *counters) recordValue(key string, v int32) {
	if key == "" { // partial solve: no verdict to check
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.values == nil {
		c.values = make(map[string]int32)
	}
	if prev, ok := c.values[key]; ok {
		if prev != v && c.badkey == "" {
			c.badkey = fmt.Sprintf("%s: value %d then %d", key, prev, v)
		}
		return
	}
	c.values[key] = v
}

// workload deterministically generates the request position stream. The
// hot set is fixed up front; fresh positions never repeat.
type workload struct {
	game  string
	depth int
	mu    sync.Mutex
	rng   *rand.Rand
	hot   []string
	dup   float64
	next  uint64 // fresh-position counter (random game)
}

func newWorkload(cfg config) *workload {
	w := &workload{
		game:  cfg.game,
		depth: cfg.depth,
		rng:   rand.New(rand.NewSource(cfg.seed)),
		dup:   cfg.dup,
		next:  1 << 32, // fresh random seeds live far above the hot set
	}
	for i := 0; i < cfg.hot; i++ {
		w.hot = append(w.hot, w.fresh(cfg, uint64(i)))
	}
	return w
}

// fresh renders a position that is unique for the given ordinal.
func (w *workload) fresh(cfg config, n uint64) string {
	switch w.game {
	case "nim", "kayles":
		// Solve workload: four small heaps/rows derived from the
		// ordinal, so every instance solves well inside a deadline. The
		// space is finite (7^4 specs), so a long run revisits positions
		// — verdicts are deterministic, so the consistency check holds.
		return fmt.Sprintf("%d,%d,%d,%d", 1+n%7, 1+(n/7)%7, 1+(n/49)%7, 1+(n/343)%7)
	case "ttt":
		return "" // single position; ttt is the exact-value smoke game
	case "connect4":
		// A 4-move prefix cannot fill a column, so any digit string in
		// 0..6 is legal. Mix the ordinal so prefixes are distinct.
		var b [4]byte
		for i := range b {
			b[i] = byte('0' + (n>>(3*i)+uint64(i))%7)
		}
		return string(b[:])
	default: // random
		return fmt.Sprintf("%d:%d", n+1, cfg.branch)
	}
}

// pick returns the next request position.
func (w *workload) pick(cfg config) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.hot) > 0 && w.rng.Float64() < w.dup {
		return w.hot[w.rng.Intn(len(w.hot))]
	}
	n := w.next
	w.next++
	return w.fresh(cfg, n)
}

// issuer performs one request and classifies the outcome.
type issuer interface {
	issue(ctx context.Context, position string) outcome
}

type outcome struct {
	status    int // HTTP-style: 200, 429, 503, 504, 500
	key       string
	value     int32
	nodes     int64
	cached    bool
	coalesced bool
	degraded  bool
}

// httpIssuer drives a gtserve instance.
type httpIssuer struct {
	cfg    config
	client *http.Client
	seq    atomic.Uint64 // -trace: per-request trace-ID suffix
}

func (h *httpIssuer) issue(ctx context.Context, position string) outcome {
	if h.cfg.solve {
		return h.issueSolve(ctx, position)
	}
	body, _ := json.Marshal(serve.SearchRequest{
		Game:       h.cfg.game,
		Position:   position,
		Depth:      h.cfg.depth,
		DeadlineMs: int(h.cfg.deadline / time.Millisecond),
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.cfg.url+"/v1/search", bytes.NewReader(body))
	if err != nil {
		return outcome{status: 500}
	}
	req.Header.Set("Content-Type", "application/json")
	if h.cfg.trace != "" {
		// Force-sample this request under a deterministic ID: the server
		// always honours an inbound X-GT-Trace, whatever its -trace-sample.
		req.Header.Set("X-GT-Trace", fmt.Sprintf("%s-%d", h.cfg.trace, h.seq.Add(1)))
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return outcome{status: 500}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return outcome{status: resp.StatusCode}
	}
	var sr serve.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return outcome{status: 500}
	}
	return outcome{
		status:    200,
		key:       sr.Game + "|" + sr.Position,
		value:     sr.Value,
		nodes:     sr.Nodes,
		cached:    sr.Cached,
		coalesced: sr.Coalesced,
		degraded:  sr.Degraded,
	}
}

// issueSolve drives POST /v1/solve. The recorded "value" is the verdict
// (1 proven, 0 disproven), which is what -expect asserts against; a
// partial (budget-stopped) answer is a completion for latency purposes
// but records no verdict, since unknown is not a value.
func (h *httpIssuer) issueSolve(ctx context.Context, position string) outcome {
	body, _ := json.Marshal(serve.SolveRequest{
		Game:       h.cfg.game,
		Position:   position,
		DeadlineMs: int(h.cfg.deadline / time.Millisecond),
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.cfg.url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return outcome{status: 500}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return outcome{status: 500}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return outcome{status: resp.StatusCode}
	}
	var sr serve.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return outcome{status: 500}
	}
	out := outcome{
		status:    200,
		nodes:     sr.Nodes,
		cached:    sr.Cached,
		coalesced: sr.Coalesced,
	}
	if !sr.Partial {
		out.key = sr.Game + "|" + sr.Position
		if sr.Verdict == "proven" {
			out.value = 1
		}
	}
	return out
}

// baselineIssuer is the no-residency reference: every request is an
// independent SearchParallelTT call, exactly what a stateless handler
// would do — a fresh pool spun up per request, no coalescing, no result
// cache, and (by default) a fresh per-request transposition table, so
// duplicates are re-searched from scratch. With -baseline-shared-table
// the table persists across requests, isolating the table's share of
// the resident architecture's win from the cache/coalescing share.
type baselineIssuer struct {
	cfg   config
	table *engine.Table // non-nil only with -baseline-shared-table
}

func (b *baselineIssuer) issue(ctx context.Context, position string) outcome {
	pos, key, err := serve.ParsePosition(b.cfg.game, position)
	if err != nil {
		return outcome{status: 500}
	}
	table := b.table
	if table == nil {
		table = engine.NewTable(1 << 16)
	}
	sctx, cancel := context.WithTimeout(ctx, b.cfg.deadline)
	defer cancel()
	if b.cfg.solve {
		res, err := pns.New(pos, pns.Options{Table: table}).Solve(sctx)
		if err != nil {
			if sctx.Err() != nil {
				return outcome{status: 504}
			}
			return outcome{status: 500}
		}
		out := outcome{status: 200, nodes: res.Nodes}
		if res.Verdict != pns.Unknown {
			out.key = key
			if res.Verdict == pns.Proven {
				out.value = 1
			}
		}
		return out
	}
	res, err := engine.SearchOpt(sctx, pos, b.cfg.depth, engine.SearchOptions{
		Workers: b.cfg.workers,
		Table:   table,
	})
	if err != nil {
		if sctx.Err() != nil {
			return outcome{status: 504}
		}
		return outcome{status: 500}
	}
	return outcome{status: 200, key: key, value: res.Value, nodes: res.Nodes}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.url, "url", "", "gtserve base URL (e.g. http://127.0.0.1:8080); empty requires -baseline")
	flag.BoolVar(&cfg.baseline, "baseline", false, "run searches in-process, one SearchParallelTT per request")
	flag.BoolVar(&cfg.solve, "solve", false, "drive POST /v1/solve (game must be nim or kayles); -expect asserts the verdict (1 proven, 0 disproven)")
	sharedTable := flag.Bool("baseline-shared-table", false, "with -baseline: share one table across requests instead of a fresh per-request table")
	flag.StringVar(&cfg.game, "game", "random", "workload game: random | ttt | connect4")
	flag.IntVar(&cfg.depth, "depth", 8, "search depth per request")
	flag.IntVar(&cfg.branch, "branch", 5, "branching factor (random game)")
	flag.IntVar(&cfg.hot, "hot", 16, "hot-set size for duplicate traffic")
	flag.Float64Var(&cfg.dup, "dup", 0.75, "fraction of requests drawn from the hot set")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload RNG seed")
	flag.IntVar(&cfg.clients, "clients", 8, "closed loop: concurrent clients")
	flag.Float64Var(&cfg.qps, "qps", 0, "open loop: target request rate (0 = closed loop)")
	flag.IntVar(&cfg.maxInflight, "maxinflight", 256, "open loop: client-side in-flight cap")
	flag.DurationVar(&cfg.duration, "duration", 5*time.Second, "load duration")
	flag.DurationVar(&cfg.deadline, "deadline", 10*time.Second, "per-request deadline")
	flag.IntVar(&cfg.workers, "workers", 0, "workers per search, stamped on the benchmark row (baseline: actually used; serve: must match the server)")
	flag.IntVar(&cfg.shards, "shards", 0, "worker processes behind the server, stamped on the benchmark row (0 = single process)")
	expect := flag.String("expect", "", "assert every completed value equals this integer")
	flag.StringVar(&cfg.out, "out", "", "append a run to this benchfmt JSON document")
	flag.StringVar(&cfg.label, "label", "", "run label (default: baseline | serve, or chaos with -chaos)")
	flag.BoolVar(&cfg.chaos, "chaos", false, "fault-drill run: label the row chaos and report the degraded-mode request count")
	flag.StringVar(&cfg.trace, "trace", "", "send X-GT-Trace: <prefix>-<n> on every request, force-sampling them for /debug/gttrace")
	flag.Parse()

	if cfg.url == "" && !cfg.baseline {
		fmt.Fprintln(os.Stderr, "gtload: need -url or -baseline")
		os.Exit(2)
	}
	if cfg.url != "" && cfg.baseline {
		fmt.Fprintln(os.Stderr, "gtload: -url and -baseline are mutually exclusive")
		os.Exit(2)
	}
	if cfg.solve && cfg.game != "nim" && cfg.game != "kayles" {
		fmt.Fprintln(os.Stderr, "gtload: -solve wants -game nim or -game kayles")
		os.Exit(2)
	}
	if *expect != "" {
		if _, err := fmt.Sscanf(*expect, "%d", &cfg.expect); err != nil {
			fmt.Fprintln(os.Stderr, "gtload: bad -expect:", err)
			os.Exit(2)
		}
		cfg.hasExpect = true
	}
	if cfg.label == "" {
		switch {
		case cfg.chaos:
			cfg.label = "chaos"
		case cfg.baseline:
			cfg.label = "baseline"
		default:
			cfg.label = "serve"
		}
	}

	var is issuer
	if cfg.baseline {
		bi := &baselineIssuer{cfg: cfg}
		if *sharedTable {
			bi.table = engine.NewTable(1 << 20)
		}
		is = bi
	} else {
		is = &httpIssuer{cfg: cfg, client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: cfg.clients + cfg.maxInflight},
		}}
	}

	w := newWorkload(cfg)
	var c counters
	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration)
	defer cancel()

	start := time.Now()
	if cfg.qps > 0 {
		runOpen(ctx, cfg, w, is, &c)
	} else {
		runClosed(ctx, cfg, w, is, &c)
	}
	wall := time.Since(start)

	ok := report(cfg, &c, wall)
	if cfg.out != "" {
		if err := writeRun(cfg, &c, wall); err != nil {
			fmt.Fprintln(os.Stderr, "gtload:", err)
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runClosed keeps -clients requests permanently in flight.
func runClosed(ctx context.Context, cfg config, w *workload, is issuer, c *counters) {
	var wg sync.WaitGroup
	for i := 0; i < cfg.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				one(ctx, cfg, w, is, c)
			}
		}()
	}
	wg.Wait()
}

// runOpen issues at a fixed rate regardless of completions (the
// overload probe: arrivals above capacity must be shed by the server,
// not absorbed by client back-pressure). The in-flight cap only bounds
// client memory; requests hitting the cap count as dropped.
func runOpen(ctx context.Context, cfg config, w *workload, is issuer, c *counters) {
	interval := time.Duration(float64(time.Second) / cfg.qps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	sem := make(chan struct{}, cfg.maxInflight)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var wg sync.WaitGroup
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return
		case <-ticker.C:
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					one(ctx, cfg, w, is, c)
					<-sem
				}()
			default:
				c.dropped.Add(1)
			}
		}
	}
}

// one issues a single request and accumulates its outcome.
func one(ctx context.Context, cfg config, w *workload, is issuer, c *counters) {
	pos := w.pick(cfg)
	c.issued.Add(1)
	t0 := time.Now()
	out := is.issue(ctx, pos)
	el := time.Since(t0)
	switch out.status {
	case 200:
		c.completed.Add(1)
		c.latency.Observe(el.Nanoseconds())
		c.nodes.Add(out.nodes)
		if out.cached {
			c.cached.Add(1)
		}
		if out.coalesced {
			c.coalesced.Add(1)
		}
		if out.degraded {
			c.degraded.Add(1)
		}
		c.recordValue(out.key, out.value)
	case 429:
		c.shed429.Add(1)
	case 503:
		c.shed503.Add(1)
	case 504:
		c.timeout.Add(1)
	default:
		if ctx.Err() != nil {
			return // cut off by the run deadline, not a server failure
		}
		c.failed.Add(1)
	}
}

// report prints the summary and returns whether the run passes its own
// assertions (value consistency, -expect, any completions at all).
func report(cfg config, c *counters, wall time.Duration) bool {
	snap := c.latency.Snapshot()
	completed := c.completed.Load()
	issued := c.issued.Load()
	qps := float64(completed) / wall.Seconds()
	fmt.Printf("gtload: label=%s game=%s depth=%d dup=%.2f hot=%d wall=%s\n",
		cfg.label, cfg.game, cfg.depth, cfg.dup, cfg.hot, wall.Round(time.Millisecond))
	p50, p99 := time.Duration(0), time.Duration(0)
	if completed > 0 {
		p50 = time.Duration(snap.P50())
		p99 = time.Duration(snap.P99())
	}
	fmt.Printf("gtload: issued=%d completed=%d qps=%.1f p50=%s p99=%s\n",
		issued, completed, qps, p50.Round(time.Microsecond), p99.Round(time.Microsecond))
	fmt.Printf("gtload: shed_429=%d shed_503=%d timeout_504=%d failed=%d dropped=%d cached=%d coalesced=%d degraded=%d\n",
		c.shed429.Load(), c.shed503.Load(), c.timeout.Load(), c.failed.Load(),
		c.dropped.Load(), c.cached.Load(), c.coalesced.Load(), c.degraded.Load())

	ok := true
	if completed == 0 {
		fmt.Println("gtload: FAIL no request completed")
		ok = false
	}
	if c.badkey != "" {
		fmt.Println("gtload: FAIL inconsistent values:", c.badkey)
		ok = false
	}
	if cfg.hasExpect {
		for key, v := range c.values {
			if int64(v) != cfg.expect {
				fmt.Printf("gtload: FAIL %s: value %d, expected %d\n", key, v, cfg.expect)
				ok = false
			}
		}
	}
	return ok
}

// writeRun appends this run to the benchfmt trajectory document.
func writeRun(cfg config, c *counters, wall time.Duration) error {
	snap := c.latency.Snapshot()
	completed := c.completed.Load()
	issued := c.issued.Load()
	name := "search"
	if cfg.solve {
		name = "solve"
	}
	item := benchfmt.Item{
		Workload: fmt.Sprintf("%s-d%d-dup%02.0f", cfg.game, cfg.depth, cfg.dup*100),
		Name:     name,
		Workers:  cfg.workers,
		Shards:   cfg.shards,
		Reps:     int(completed),
		QPS:      float64(completed) / wall.Seconds(),
	}
	if completed > 0 {
		item.NsPerOp = snap.Mean()
		item.P50Ns = snap.P50()
		item.P99Ns = snap.P99()
	}
	if issued > 0 {
		item.ErrRate = float64(issued-completed) / float64(issued)
	}
	if completed > 0 {
		item.NodesPerOp = float64(c.nodes.Load()) / float64(completed)
		item.NodesPerSec = float64(c.nodes.Load()) / wall.Seconds()
	}
	item.Degraded = int(c.degraded.Load())

	doc := &benchfmt.Doc{Schema: benchfmt.SchemaV2}
	if _, statErr := os.Stat(cfg.out); statErr == nil {
		var err error
		if doc, err = benchfmt.Load(cfg.out); err != nil {
			return err
		}
	}
	doc.Machine = benchfmt.Machine{
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	doc.Append(benchfmt.Run{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Commit:     vcsRevision(),
		Label:      cfg.label,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: []benchfmt.Item{item},
	})
	return benchfmt.Write(cfg.out, doc)
}

func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && rev != "unknown" {
		rev += "-dirty"
	}
	return rev
}
