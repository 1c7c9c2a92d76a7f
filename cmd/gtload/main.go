// Command gtload drives load at a gtserve instance and reports
// completed-request throughput, latency quantiles, shed rates and
// degraded-mode answers. It is the client behind the serving smoke
// scripts: with -expect every completed answer is checked against a
// known value, and any value that changes between two answers for the
// same position fails the run.
//
// Usage:
//
//	gtload -url http://127.0.0.1:8080 -duration 5s -clients 8
//	gtload -url ... -qps 200 -maxinflight 64      # open loop
//	gtload -url ... -game ttt -depth 9 -expect 0  # exact-value assert
//	gtload -url ... -solve -game nim              # drive /v1/solve
//
// The workload is a position mix: each request picks a position from a
// fixed hot set with probability -dup (these coalesce and cache on the
// server), otherwise a fresh never-repeated position. Generation is
// deterministic per -seed, so two runs measure the same request stream.
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
	"sync"
	"sync/atomic"
	"time"

	"gametree/internal/metrics"
	"gametree/internal/serve"
)

type config struct {
	url    string
	solve  bool
	game   string
	depth  int
	branch int
	hot    int
	dup    float64
	seed   int64

	clients     int
	qps         float64
	maxInflight int
	duration    time.Duration
	deadline    time.Duration

	expect    int64
	hasExpect bool

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

// outcome classifies one request.
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

func main() {
	var cfg config
	flag.StringVar(&cfg.url, "url", "", "gtserve base URL (e.g. http://127.0.0.1:8080)")
	flag.BoolVar(&cfg.solve, "solve", false, "drive POST /v1/solve (game must be nim or kayles); -expect asserts the verdict (1 proven, 0 disproven)")
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
	expect := flag.String("expect", "", "assert every completed value equals this integer")
	flag.StringVar(&cfg.trace, "trace", "", "send X-GT-Trace: <prefix>-<n> on every request, force-sampling them for /debug/gttrace")
	flag.Parse()

	if cfg.url == "" {
		fmt.Fprintln(os.Stderr, "gtload: need -url")
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
	is := &httpIssuer{cfg: cfg, client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: cfg.clients + cfg.maxInflight},
	}}

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

	if !report(cfg, &c, wall) {
		os.Exit(1)
	}
}

// runClosed keeps -clients requests permanently in flight.
func runClosed(ctx context.Context, cfg config, w *workload, is *httpIssuer, c *counters) {
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
func runOpen(ctx context.Context, cfg config, w *workload, is *httpIssuer, c *counters) {
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
func one(ctx context.Context, cfg config, w *workload, is *httpIssuer, c *counters) {
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
	params := "game=" + cfg.game
	if !cfg.solve { // a solve takes no depth
		params += fmt.Sprintf(" depth=%d", cfg.depth)
	}
	fmt.Printf("gtload: %s dup=%.2f hot=%d wall=%s\n",
		params, cfg.dup, cfg.hot, wall.Round(time.Millisecond))
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
