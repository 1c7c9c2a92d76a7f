package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gametree/internal/engine"
	"gametree/internal/pns"
)

// blockPos is a test position whose leaf evaluation blocks until its
// gate channel is closed, making coalescing/admission/drain timing fully
// deterministic: a search is provably in flight until the test releases
// it.
type blockPos struct {
	id   uint64
	gate chan struct{}
}

func (p blockPos) Moves() []engine.Position { return nil }
func (p blockPos) Evaluate() int32 {
	<-p.gate
	return int32(p.id % 100)
}
func (p blockPos) Hash() uint64 { return p.id }

// blockRegistry hands out gates per position id.
type blockRegistry struct {
	mu    sync.Mutex
	gates map[uint64]chan struct{}
}

func (r *blockRegistry) gate(id uint64) chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gates == nil {
		r.gates = make(map[uint64]chan struct{})
	}
	if r.gates[id] == nil {
		r.gates[id] = make(chan struct{})
	}
	return r.gates[id]
}

func (r *blockRegistry) release(id uint64) { close(r.gate(id)) }

func init() {
	// The "block" game: position string is a decimal id; every search of
	// id N blocks until the test releases gate N.
	RegisterGame("block", Game{Parse: func(position string) (engine.Position, string, error) {
		var id uint64
		if _, err := fmt.Sscanf(position, "%d", &id); err != nil {
			return nil, "", err
		}
		return blockPos{id: id, gate: testGates.gate(id)}, position, nil
	}})
}

var testGates blockRegistry

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		ts.Close()
	})
	return s, ts
}

func postSearch(t *testing.T, url string, req SearchRequest) (int, SearchResponse, errorResponse, http.Header) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ok SearchResponse
	var fail errorResponse
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := dec.Decode(&ok); err != nil {
			t.Fatal(err)
		}
	} else if err := dec.Decode(&fail); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, ok, fail, resp.Header
}

// kinds are the request classes every pipeline behaviour is tested over:
// both endpoints, and /v1/solve's streaming form.
var kinds = []string{"search", "solve", "solve-stream"}

// reply is one response reduced to what the pipeline tests assert on. For
// a stream, streamErr is the final frame's error, if that is how it ended.
type reply struct {
	code      int
	hdr       http.Header
	partial   bool
	streamErr string
}

// postKind posts one request of the given kind and reads it to the end.
func postKind(t *testing.T, url, kind, game, position string, deadlineMs int) reply {
	t.Helper()
	if kind == "search" {
		code, _, _, hdr := postSearch(t, url, SearchRequest{Game: game, Position: position, DeadlineMs: deadlineMs})
		return reply{code: code, hdr: hdr}
	}
	body, _ := json.Marshal(SolveRequest{Game: game, Position: position, DeadlineMs: deadlineMs, Stream: kind == "solve-stream", ProgressMs: 5})
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return reply{}
	}
	defer resp.Body.Close()
	rep := reply{code: resp.StatusCode, hdr: resp.Header}
	if resp.StatusCode != http.StatusOK {
		return rep
	}
	if kind == "solve" {
		var ok SolveResponse
		if err := json.NewDecoder(resp.Body).Decode(&ok); err != nil {
			t.Error(err)
		}
		rep.partial = ok.Partial
		return rep
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var frame struct {
			Result *SolveResponse `json:"result"`
			Error  string         `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			t.Errorf("bad frame %q: %v", sc.Text(), err)
		}
		if frame.Result != nil {
			rep.partial = frame.Result.Partial
		}
		rep.streamErr = frame.Error
	}
	return rep
}

// waitFor polls until cond or the deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSearchTTTExactValue(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Pools: 1})
	// The empty tic-tac-toe board searched to the full depth is a draw.
	code, ok, fail, _ := postSearch(t, ts.URL, SearchRequest{Game: "ttt", Depth: 9})
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, fail)
	}
	if ok.Value != 0 {
		t.Fatalf("empty ttt board value %d, want 0 (draw)", ok.Value)
	}
	if ok.Cached || ok.Coalesced {
		t.Fatalf("first search flagged cached=%v coalesced=%v", ok.Cached, ok.Coalesced)
	}
	// The identical request is a cache hit with the same value.
	code, again, _, _ := postSearch(t, ts.URL, SearchRequest{Game: "ttt", Depth: 9})
	if code != http.StatusOK || !again.Cached || again.Value != 0 {
		t.Fatalf("repeat: status %d cached=%v value=%d", code, again.Cached, again.Value)
	}
	if again.Nodes != ok.Nodes {
		t.Fatalf("cached nodes %d != original %d", again.Nodes, ok.Nodes)
	}
}

func TestSearchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Pools: 1, MaxDepth: 8})
	for _, tc := range []SearchRequest{
		{Game: "nosuch", Depth: 3},
		{Game: "ttt", Position: "XX", Depth: 3},
		{Game: "ttt", Depth: 9}, // beyond MaxDepth 8
		{Game: "ttt", Depth: -1},
		{Game: "connect4", Position: "7", Depth: 3},        // column out of range
		{Game: "connect4", Position: "01010102", Depth: 3}, // disc dropped after a four-in-a-row
		{Game: "random", Position: "nan", Depth: 3},        // bad seed
	} {
		code, _, _, _ := postSearch(t, ts.URL, tc)
		if code != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", tc, code)
		}
	}
	if code, _, _, _ := postSearch(t, ts.URL, SearchRequest{Game: "connect4", Position: "333", Depth: 4}); code != http.StatusOK {
		t.Errorf("valid connect4 request got %d", code)
	}
}

func TestCoalescingSharesOneSearch(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Pools: 1})
	const id = 1001
	results := make(chan SearchResponse, 3)
	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		code, ok, fail, _ := postSearch(t, ts.URL, SearchRequest{Game: "block", Position: fmt.Sprint(id), Depth: 0, DeadlineMs: 5000})
		if code != http.StatusOK {
			t.Errorf("status %d: %+v", code, fail)
			return
		}
		results <- ok
	}
	wg.Add(1)
	go post()
	// Wait until the leader's search is provably running, then pile on.
	waitFor(t, "leader admitted", func() bool { return s.Stats()["admitted"] == 1 })
	wg.Add(2)
	go post()
	go post()
	waitFor(t, "joiners coalesced", func() bool { return s.Stats()["coalesced"] == 2 })
	testGates.release(id)
	wg.Wait()
	close(results)
	var coalesced int
	for r := range results {
		if r.Value != id%100 {
			t.Errorf("value %d, want %d", r.Value, id%100)
		}
		if r.Coalesced {
			coalesced++
		}
	}
	if coalesced != 2 {
		t.Errorf("coalesced responses %d, want 2", coalesced)
	}
	if st := s.Stats(); st["admitted"] != 1 {
		t.Errorf("admitted %d searches for 3 identical requests", st["admitted"])
	}
}

func TestOverloadShedsWith429(t *testing.T) {
	for i, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1, Pools: 1, QueueDepth: 1})
			base := uint64(2000 + 10*i) // this kind's gate ids
			// Occupy the only pool.
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rep := postKind(t, ts.URL, kind, "block", fmt.Sprint(base+1), 5000); rep.code != http.StatusOK {
					t.Errorf("occupier status %d", rep.code)
				}
			}()
			waitFor(t, "pool occupied", func() bool { return s.Stats()["admitted"] == 1 })
			// Fill the single queue slot with a second distinct position.
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rep := postKind(t, ts.URL, kind, "block", fmt.Sprint(base+2), 5000); rep.code != http.StatusOK {
					t.Errorf("queued status %d", rep.code)
				}
			}()
			waitFor(t, "queue occupied", func() bool { return s.queued.Load() == 1 })
			// The third distinct leader must be shed immediately with 429.
			rep := postKind(t, ts.URL, kind, "block", fmt.Sprint(base+3), 5000)
			if rep.code != http.StatusTooManyRequests {
				t.Fatalf("status %d, want 429", rep.code)
			}
			if rep.hdr.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			if s.Stats()["rejected_queue"] == 0 {
				t.Error("rejected_queue counter not bumped")
			}
			testGates.release(base + 1)
			testGates.release(base + 2)
			wg.Wait()
		})
	}
}

// TestRequestDeadline504: a search that outlives its deadline is a 504;
// a solve is a 200 carrying the partial state, never a 504.
func TestRequestDeadline504(t *testing.T) {
	for _, tc := range []struct {
		kind, game, pos string
		want            int
	}{
		{"search", "block", "3001", http.StatusGatewayTimeout},
		{"solve", "nim", "11,12,13,14", http.StatusOK},
		{"solve-stream", "nim", "11,12,13,15", http.StatusOK},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1, Pools: 1})
			done := make(chan reply, 1)
			go func() { done <- postKind(t, ts.URL, tc.kind, tc.game, tc.pos, 50) }()
			select {
			case rep := <-done:
				if rep.code != tc.want {
					t.Fatalf("status %d, want %d", rep.code, tc.want)
				}
				if tc.want == http.StatusOK && (!rep.partial || rep.streamErr != "") {
					t.Fatalf("deadline-stopped solve: partial=%v stream error %q", rep.partial, rep.streamErr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("deadline did not fire")
			}
			if tc.want == http.StatusGatewayTimeout {
				if s.Stats()["deadline_exceeded"] == 0 {
					t.Error("deadline_exceeded counter not bumped")
				}
				testGates.release(3001) // unblock the abandoned search so Drain can finish
			}
		})
	}
}

func TestDrainAnswersInflightAndShedsNew(t *testing.T) {
	for i, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1, Pools: 1})
			id := uint64(4000 + 10*i + 1)
			inflight := make(chan reply, 1)
			go func() { inflight <- postKind(t, ts.URL, kind, "block", fmt.Sprint(id), 5000) }()
			waitFor(t, "request in flight", func() bool { return s.Stats()["admitted"] == 1 })
			drained := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				drained <- s.Drain(ctx)
			}()
			waitFor(t, "draining visible", func() bool {
				resp, err := http.Get(ts.URL + "/healthz")
				if err != nil {
					return false
				}
				defer resp.Body.Close()
				return resp.StatusCode == http.StatusServiceUnavailable
			})
			// New requests are shed with 503 while the old one is still running.
			if rep := postKind(t, ts.URL, kind, "block", fmt.Sprint(id+1), 0); rep.code != http.StatusServiceUnavailable {
				t.Fatalf("during drain: status %d, want 503", rep.code)
			}
			select {
			case err := <-drained:
				t.Fatalf("drain returned %v with a request still in flight", err)
			default:
			}
			testGates.release(id)
			if rep := <-inflight; rep.code != http.StatusOK || rep.streamErr != "" {
				t.Fatalf("in-flight request answered %d (stream error %q), want 200", rep.code, rep.streamErr)
			}
			if err := <-drained; err != nil {
				t.Fatalf("drain: %v", err)
			}
			// Drain is idempotent and the pools are closed.
			if err := s.Drain(context.Background()); err != nil {
				t.Fatalf("second drain: %v", err)
			}
		})
	}
}

func TestDrainGraceCancelsSearches(t *testing.T) {
	for i, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1, Pools: 1})
			id := uint64(5000 + 10*i + 1)
			inflight := make(chan reply, 1)
			// Not released until the assertions are done: only the drain grace
			// expiry can end this request.
			go func() { inflight <- postKind(t, ts.URL, kind, "block", fmt.Sprint(id), 30000) }()
			defer testGates.release(id)
			waitFor(t, "request in flight", func() bool { return s.Stats()["admitted"] == 1 })
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			err := s.Drain(ctx)
			if err != context.DeadlineExceeded {
				t.Fatalf("drain err %v, want deadline exceeded", err)
			}
			// The cancelled request still produced a response — 5xx (or, on a
			// stream whose 200 is already out, a final error frame), not a drop.
			select {
			case rep := <-inflight:
				if kind == "solve-stream" {
					if rep.code != http.StatusOK || rep.streamErr == "" {
						t.Fatalf("cancelled stream ended %d with error frame %q, want 200 + error frame", rep.code, rep.streamErr)
					}
				} else if rep.code != http.StatusServiceUnavailable && rep.code != http.StatusGatewayTimeout {
					t.Fatalf("cancelled in-flight request answered %d, want 503/504", rep.code)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancelled request never answered")
			}
		})
	}
}

// lruEviction drives one lru instance through the eviction contract; mk
// makes a distinguishable value and id reads it back.
func lruEviction[V any](t *testing.T, c *lru[V], mk func(int) V, id func(V) int) {
	c.put("a", mk(1))
	c.put("b", mk(2))
	c.put("c", mk(3)) // evicts a
	if _, ok := c.get("a"); ok {
		t.Error("a should have been evicted")
	}
	if r, ok := c.get("b"); !ok || id(r) != 2 {
		t.Error("b lost")
	}
	c.put("d", mk(4)) // evicts c (b was just used)
	if _, ok := c.get("c"); ok {
		t.Error("c should have been evicted")
	}
	if _, ok := c.get("b"); !ok {
		t.Error("b lost after second eviction")
	}
	// take is a checkout: the value comes out once.
	if r, ok := c.take("d"); !ok || id(r) != 4 {
		t.Error("d not taken")
	}
	if _, ok := c.take("d"); ok || c.len() != 1 {
		t.Errorf("d taken twice, or len %d != 1", c.len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	s := New(Config{Workers: 1, Pools: 1, CacheEntries: 2, SolveStoreEntries: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	}()
	t.Run("search", func(t *testing.T) {
		lruEviction(t, s.search.cache,
			func(i int) searchOutcome { return searchOutcome{Result: engine.Result{Value: int32(i)}} },
			func(v searchOutcome) int { return int(v.Value) })
	})
	t.Run("solve", func(t *testing.T) {
		lruEviction(t, s.solve.cache,
			func(i int) solveOutcome { return solveOutcome{progress: pns.Progress{Nodes: int64(i)}} },
			func(v solveOutcome) int { return int(v.progress.Nodes) })
	})
	t.Run("parked", func(t *testing.T) {
		solvers := map[*pns.Solver]int{}
		lruEviction(t, s.parked,
			func(i int) *pns.Solver {
				sv := pns.New(blockPos{id: uint64(i)}, pns.Options{})
				solvers[sv] = i
				return sv
			},
			func(v *pns.Solver) int { return solvers[v] })
	})
}

// TestDrainLeavesNoGoroutines: after a mixed burst — searches, solves,
// cache hits, a shed request, a stream whose client hangs up mid-solve —
// Drain returns the process to the goroutine count it had before New.
func TestDrainLeavesNoGoroutines(t *testing.T) {
	idle := func() { http.DefaultTransport.(*http.Transport).CloseIdleConnections() }
	idle()
	// Let earlier tests' goroutines finish unwinding before the baseline.
	base := runtime.NumGoroutine()
	for settled := 0; settled < 5; {
		time.Sleep(10 * time.Millisecond)
		if n := runtime.NumGoroutine(); n == base {
			settled++
		} else {
			base, settled = n, 0
		}
	}

	s := New(Config{Workers: 2, Pools: 2, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, kind := range kinds {
				game, pos := "nim", fmt.Sprintf("%d,5,6", 2+i%2) // two positions: repeats hit the cache
				if kind == "search" {
					game, pos = "ttt", ""
				}
				// Two pools and one queue slot: some of these are shed with 429.
				if rep := postKind(t, ts.URL, kind, game, pos, 0); rep.code != http.StatusOK && rep.code != http.StatusTooManyRequests {
					t.Errorf("%s: status %d", kind, rep.code)
				}
			}
		}()
	}
	wg.Wait()
	// A stream dropped after its first progress frame.
	body, _ := json.Marshal(SolveRequest{Game: "nim", Position: "12,13,14,15", Stream: true, ProgressMs: 5})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if sc := bufio.NewScanner(resp.Body); !sc.Scan() {
		t.Fatalf("no first frame: %v", sc.Err())
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
	idle()
	waitFor(t, "goroutines back to the pre-New baseline", func() bool { return runtime.NumGoroutine() <= base })
}

func TestMetricsEndpointHasServeFamilies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Pools: 1})
	if code, _, _, _ := postSearch(t, ts.URL, SearchRequest{Game: "random", Position: "77", Depth: 4}); code != http.StatusOK {
		t.Fatalf("search status %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, family := range []string{
		"gametree_serve_requests_total",
		"gametree_serve_admitted_total 1",
		"gametree_serve_latency_ns_count",
		"gametree_serve_queue_wait_ns_count",
		"gametree_nodes_total", // engine telemetry shares the endpoint
		// A random search never transposes: the table takes no memory.
		"gametree_memory_bytes{owner=\"table\"} 0\n",
		"gametree_memory_bytes{owner=\"solve_store\"} 0\n",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Pools: 3})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" || h["pools"].(float64) != 3 {
		t.Fatalf("healthz %+v", h)
	}
}

func TestParsePositionKeys(t *testing.T) {
	for _, tc := range []struct {
		game, pos, wantKey, wantErr string
	}{
		{"ttt", "", "ttt|.........", ""},
		{"ttt", "xox.o..x.", "ttt|XOX.O..X.", ""},
		{"ttt", "xox .o. .x.", "ttt|XOX.O..X.", ""}, // separators are not part of the key
		{"connect4", "33", "connect4|33", ""},
		{"connect4", "0101010", "connect4|0101010", ""}, // the winning disc itself is a legal last move
		{"connect4", "01010102", "", "move 7: game already won"},
		{"random", "42", "random|42:5", ""},
		{"random", "042:7", "random|42:7", ""},
	} {
		_, key, err := ParsePosition(tc.game, tc.pos)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s/%s: err %v, want %q", tc.game, tc.pos, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s/%s: %v", tc.game, tc.pos, err)
			continue
		}
		if key != tc.wantKey {
			t.Errorf("%s/%s: key %q, want %q", tc.game, tc.pos, key, tc.wantKey)
		}
	}
}

// TestLRUByteBudget: a weighed lru evicts least-recently-used entries
// until the sizes of the live ones fit the budget, and a take gives the
// taken value's bytes back.
func TestLRUByteBudget(t *testing.T) {
	c := newLRU[int64](8)
	c.weigh(func(v int64) int64 { return v }, 10)
	c.put("a", 4)
	c.put("b", 4)
	if _, ok := c.get("a"); !ok || c.bytes() != 8 {
		t.Fatalf("two entries of 4 under a budget of 10: a present=%v, %d bytes", ok, c.bytes())
	}
	c.put("c", 4) // 12 > 10: evicts b, a was just used
	if _, ok := c.get("b"); ok || c.bytes() != 8 {
		t.Fatalf("b should have been evicted (%d bytes held)", c.bytes())
	}
	c.put("a", 6) // refresh in place: 10 fits
	if c.len() != 2 || c.bytes() != 10 {
		t.Fatalf("refresh: %d entries, %d bytes", c.len(), c.bytes())
	}
	if v, ok := c.take("a"); !ok || v != 6 || c.bytes() != 4 {
		t.Fatalf("take: %d %v, %d bytes held", v, ok, c.bytes())
	}
	c.put("d", 11) // larger than the whole budget: kept by nobody
	if c.len() != 0 || c.bytes() != 0 {
		t.Fatalf("an entry over the budget: %d entries, %d bytes", c.len(), c.bytes())
	}
}

// metricValue scrapes /metrics and returns the value of one sample line.
func metricValue(t *testing.T, url, sample string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), sample+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", sample, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s sample", sample)
	return 0
}

// TestMemoryGauges: a server that has answered only random searches holds
// no table memory; one search of a game that transposes, or one solve,
// takes the whole slab, 16 bytes per entry. The parked-solver store
// reports its trees at solveNodeBytes a node.
func TestMemoryGauges(t *testing.T) {
	const entries = 1 << 12
	table, store := `gametree_memory_bytes{owner="table"}`, `gametree_memory_bytes{owner="solve_store"}`
	for _, first := range []struct{ kind, game, pos string }{{"search", "connect4", ""}, {"solve", "nim", "3,5,7"}} {
		t.Run(first.kind, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 2, Pools: 1, TableEntries: entries})
			for seed := 1; seed <= 3; seed++ {
				if code, _, fail, _ := postSearch(t, ts.URL, SearchRequest{Game: "random", Position: strconv.Itoa(seed), Depth: 6}); code != http.StatusOK {
					t.Fatalf("random search: status %d (%+v)", code, fail)
				}
			}
			if got := metricValue(t, ts.URL, table); got != 0 {
				t.Fatalf("after random searches only: table holds %d bytes", got)
			}
			if got := metricValue(t, ts.URL, store); got != 0 {
				t.Fatalf("solve store holds %d bytes before any solve", got)
			}
			if first.kind == "search" {
				if code, _, fail, _ := postSearch(t, ts.URL, SearchRequest{Game: first.game, Position: first.pos, Depth: 5}); code != http.StatusOK {
					t.Fatalf("%s search: status %d (%+v)", first.game, code, fail)
				}
			} else if code, resp, fail := postSolve(t, ts.URL, SolveRequest{Game: first.game, Position: first.pos}); code != http.StatusOK || resp.Verdict != "proven" {
				t.Fatalf("solve: status %d verdict %q (%+v)", code, resp.Verdict, fail)
			}
			if got := metricValue(t, ts.URL, table); got != 16*entries || got != s.Table().Bytes() {
				t.Fatalf("after one %s %s: table holds %d bytes, want %d", first.game, first.kind, got, 16*entries)
			}
		})
	}
	s, ts := newTestServer(t, Config{Workers: 2, Pools: 1})
	if code, resp, fail := postSolve(t, ts.URL, SolveRequest{Game: "nim", Position: "9,10,11,12", MaxNodes: 50}); code != http.StatusOK || !resp.Partial {
		t.Fatalf("budget-stopped solve: status %d partial=%v (%+v)", code, resp.Partial, fail)
	}
	_, key, _ := ParsePosition("nim", "9,10,11,12")
	solver, ok := s.parked.get(key)
	if !ok {
		t.Fatal("the partial solve was not parked")
	}
	if got, want := metricValue(t, ts.URL, store), solver.Progress().TreeNodes*solveNodeBytes; got != want {
		t.Fatalf("solve store holds %d bytes, want %d", got, want)
	}
}
