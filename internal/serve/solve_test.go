package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func postSolve(t *testing.T, url string, req SolveRequest) (int, SolveResponse, errorResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ok SolveResponse
	var fail errorResponse
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := dec.Decode(&ok); err != nil {
			t.Fatal(err)
		}
	} else if err := dec.Decode(&fail); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, ok, fail
}

// TestSolveVerdicts checks exact Sprague-Grundy verdicts over the wire:
// nim with nonzero xor is proven, zero xor disproven; same for Kayles
// Grundy values.
func TestSolveVerdicts(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Pools: 1})
	cases := []struct {
		game, pos string
		proven    bool
	}{
		{"nim", "1,2,3", false}, // 1^2^3 = 0
		{"nim", "1,2,4", true},
		{"nim", "5,5", false},
		{"nim", "7", true},
		{"kayles", "1", true},
		{"kayles", "3,2,1", false}, // 3^2^1 = 0 in Grundy values for rows ≤ 3
		{"kayles", "5,6", true},    // 4^3 = 7
	}
	for _, tc := range cases {
		code, ok, fail := postSolve(t, ts.URL, SolveRequest{Game: tc.game, Position: tc.pos})
		if code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %+v", tc.game, tc.pos, code, fail)
		}
		want := "disproven"
		if tc.proven {
			want = "proven"
		}
		if ok.Verdict != want {
			t.Fatalf("%s %s: verdict %q, want %q", tc.game, tc.pos, ok.Verdict, want)
		}
		if tc.proven && ok.PN != 0 {
			t.Fatalf("%s %s: proven with pn=%d", tc.game, tc.pos, ok.PN)
		}
		if !tc.proven && ok.DN != 0 {
			t.Fatalf("%s %s: disproven with dn=%d", tc.game, tc.pos, ok.DN)
		}
	}

	// Identical repeat: served from the solve cache.
	code, again, _ := postSolve(t, ts.URL, SolveRequest{Game: "nim", Position: "1,2,4"})
	if code != http.StatusOK || !again.Cached || again.Verdict != "proven" {
		t.Fatalf("repeat: status %d cached=%v verdict=%q", code, again.Cached, again.Verdict)
	}

	// Heap permutations canonicalize to one key: also a cache hit.
	code, perm, _ := postSolve(t, ts.URL, SolveRequest{Game: "nim", Position: "4 1 2"})
	if code != http.StatusOK || !perm.Cached {
		t.Fatalf("permuted heaps missed the cache: status %d cached=%v", code, perm.Cached)
	}
}

// TestSolveValidation covers the 4xx/501 paths.
func TestSolveValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Pools: 1})
	for _, tc := range []SolveRequest{
		{Game: "nosuch", Position: "1"},
		{Game: "nim", Position: "x,2"},
		{Game: "nim", Position: ""},
		{Game: "kayles", Position: "1,-2"},
		{Game: "nim", Position: "9999"}, // heap beyond cap
	} {
		code, _, _ := postSolve(t, ts.URL, tc)
		if code != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", tc, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}
}

// TestSolveBackend501 pins that a shard-backend deployment refuses
// solves explicitly instead of panicking on nil pools.
func TestSolveBackend501(t *testing.T) {
	_, ts := newTestServer(t, Config{Pools: 1, Backend: &fakeBackend{}})
	code, _, fail := postSolve(t, ts.URL, SolveRequest{Game: "nim", Position: "1,2,4"})
	if code != http.StatusNotImplemented {
		t.Fatalf("status %d (%+v), want 501", code, fail)
	}
}

// TestSolveDeadlinePartialResume: a tiny node budget stops the solve
// with a 200 partial (never 504), parks the tree, and the repeat
// request resumes it — visible as resumed=true and continued counters.
func TestSolveDeadlinePartialResume(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Pools: 1})
	req := SolveRequest{Game: "nim", Position: "9,10,11,12", MaxNodes: 50}
	code, first, fail := postSolve(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, fail)
	}
	if !first.Partial || first.Verdict != "unknown" {
		t.Fatalf("budget-stopped solve: partial=%v verdict=%q", first.Partial, first.Verdict)
	}
	if got := s.Stats()["parked_solvers"]; got != 1 {
		t.Fatalf("parked_solvers = %d, want 1", got)
	}

	code, second, _ := postSolve(t, ts.URL, req)
	if code != http.StatusOK || !second.Resumed {
		t.Fatalf("repeat: status %d resumed=%v", code, second.Resumed)
	}
	if second.Expands <= first.Expands {
		t.Fatalf("resume did not continue: %d then %d expands", first.Expands, second.Expands)
	}

	// A real deadline expiry behaves the same: 200 + partial, not 504.
	code, dl, fail := postSolve(t, ts.URL,
		SolveRequest{Game: "nim", Position: "11,12,13,14", DeadlineMs: 30})
	if code != http.StatusOK {
		t.Fatalf("deadline solve: status %d (%+v), want 200 partial", code, fail)
	}
	if !dl.Partial {
		t.Fatalf("deadline solve finished?! %+v", dl)
	}
}

// TestSolveTreeCap: SolveMaxNodes caps the nodes of one proof tree, not
// each request's share of it. A solve of a position far too big to
// finish stops within the cap plus one fan-out per worker. A tree at the
// cap could not grow on resume, so it is dropped, not parked, and its
// answer, budget_exhausted, is final: the repeats, with or without a
// budget of their own, get it from the result cache.
func TestSolveTreeCap(t *testing.T) {
	const capNodes, workers = 3000, 2
	s, ts := newTestServer(t, Config{Workers: workers, Pools: 1, SolveMaxNodes: capNodes})
	pos, key, err := ParsePosition("nim", "20,30,40,50")
	if err != nil {
		t.Fatal(err)
	}
	limit := int64(capNodes + workers*len(pos.Moves()))
	for i, budget := range []int64{0, 0, capNodes} {
		code, resp, fail := postSolve(t, ts.URL, SolveRequest{Game: "nim", Position: "20,30,40,50", MaxNodes: budget})
		if code != http.StatusOK || resp.Partial || resp.Resumed || resp.Status != SolveBudgetExhausted || resp.Cached != (i > 0) {
			t.Fatalf("request %d: status %d partial=%v resumed=%v status=%q cached=%v (%+v)",
				i, code, resp.Partial, resp.Resumed, resp.Status, resp.Cached, fail)
		}
		if _, ok := s.parked.take(key); ok {
			t.Fatalf("request %d: the capped tree was parked", i)
		}
		out, ok := s.solve.cache.get(key)
		if !ok {
			t.Fatalf("request %d: the capped answer is not cached", i)
		}
		if tree := out.progress.TreeNodes; tree < capNodes || tree > limit {
			t.Fatalf("request %d: capped tree has %d nodes, cap %d, limit %d", i, tree, capNodes, limit)
		}
	}
}

// TestSolveStoreByteBudget: a flood of distinct deep solves, each
// stopped by its own budget below the cap and parked, keeps the store
// within its byte budget (one tree at SolveMaxNodes), where a count
// bound alone would keep all 32. The heap is checked too, after a GC:
// it may grow by the budget plus 2 MiB of slack for the runtime, the
// HTTP connection and the table.
func TestSolveStoreByteBudget(t *testing.T) {
	const capNodes, perSolve, solves = 20000, 5000, 40
	s, ts := newTestServer(t, Config{Workers: 2, Pools: 1, SolveMaxNodes: capNodes, TableEntries: 1 << 10})
	budget := int64(capNodes * solveNodeBytes)
	if code, _, _ := postSolve(t, ts.URL, SolveRequest{Game: "nim", Position: "1,2,3"}); code != http.StatusOK {
		t.Fatalf("warm-up status %d", code)
	}
	base := liveHeap()
	for i := 0; i < solves; i++ {
		pos := fmt.Sprintf("20,30,%d,%d", 40+i%20, 50+i/20)
		code, resp, fail := postSolve(t, ts.URL, SolveRequest{Game: "nim", Position: pos, MaxNodes: perSolve})
		if code != http.StatusOK || !resp.Partial {
			t.Fatalf("%s: status %d partial=%v (%+v)", pos, code, resp.Partial, fail)
		}
		if held := s.parked.bytes(); held > budget {
			t.Fatalf("after %d solves the store holds %d bytes, budget %d", i+1, held, budget)
		}
	}
	if n := s.parked.len(); n < 2 || n >= solves {
		t.Fatalf("%d trees parked, want more than one and fewer than %d", n, solves)
	}
	if grew := int64(liveHeap()) - int64(base); grew > budget+2<<20 {
		t.Fatalf("live heap grew %d bytes over the flood, budget %d + 2 MiB slack", grew, budget)
	}
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSolveStream reads the newline-delimited streaming response: zero
// or more progress frames, then exactly one result frame with the right
// verdict.
func TestSolveStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Pools: 1})
	body, _ := json.Marshal(SolveRequest{
		Game: "nim", Position: "4,5,6", Stream: true, ProgressMs: 5,
	})
	// The repeat is answered from the cache, and is still a well-formed
	// stream: same content type, one result frame.
	for _, wantCached := range []bool{false, true} {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
			t.Fatalf("cached=%v: content type %q", wantCached, ct)
		}
		var result *SolveResponse
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var frame struct {
				Progress *SolveProgress `json:"progress"`
				Result   *SolveResponse `json:"result"`
				Error    string         `json:"error"`
			}
			if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
				t.Fatalf("bad frame %q: %v", sc.Text(), err)
			}
			if frame.Error != "" {
				t.Fatalf("stream error: %s", frame.Error)
			}
			if frame.Result != nil {
				if result != nil {
					t.Fatal("two result frames")
				}
				result = frame.Result
			} else if frame.Progress == nil {
				t.Fatalf("frame %q is neither progress nor result", sc.Text())
			} else if result != nil {
				t.Fatal("progress frame after the result frame")
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if result == nil {
			t.Fatal("stream ended without a result frame")
		}
		if result.Verdict != "proven" { // 4^5^6 = 7 ≠ 0
			t.Fatalf("verdict %q, want proven", result.Verdict)
		}
		if result.Cached != wantCached {
			t.Fatalf("cached=%v, want %v", result.Cached, wantCached)
		}
	}
}

// TestSolveStreamClientCancel drops the connection mid-solve and
// asserts the workers unwind promptly: the pool token must come back
// (a follow-up solve succeeds quickly) and the partial tree is parked.
func TestSolveStreamClientCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Pools: 1, MaxDeadline: time.Minute})
	body, _ := json.Marshal(SolveRequest{
		Game: "nim", Position: "12,13,14,15", Stream: true,
		DeadlineMs: 60000, ProgressMs: 5,
	})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one progress frame so the solve is provably running, then
	// drop the connection.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first frame: %v", sc.Err())
	}
	resp.Body.Close()

	// Worker release: the single pool must serve a fresh solve soon.
	waitFor(t, "parked partial solver", func() bool {
		return s.Stats()["parked_solvers"] >= 1
	})
	code, ok, fail := postSolve(t, ts.URL, SolveRequest{Game: "nim", Position: "1,2,4"})
	if code != http.StatusOK || ok.Verdict != "proven" {
		t.Fatalf("post-cancel solve: status %d %+v %+v", code, ok, fail)
	}
}

// hangupWriter is a client that vanishes at its first progress frame: the
// write fails, and — to pin the race the settle step must win — the solve
// is released to finish just before the handler learns of the failure.
type hangupWriter struct {
	*httptest.ResponseRecorder
	gate uint64
	once sync.Once
}

func (w *hangupWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		testGates.release(w.gate)
		time.Sleep(50 * time.Millisecond) // the one-node solve needs microseconds
	})
	return 0, errors.New("client went away")
}

// TestSolveStreamHangupKeepsVerdict: a streaming client hanging up must
// not cost the verdict of a solve that finished anyway — it is cached,
// not parked as a partial tree.
func TestSolveStreamHangupKeepsVerdict(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Pools: 1})
	body, _ := json.Marshal(SolveRequest{Game: "block", Position: "6001", Stream: true, DeadlineMs: 5000, ProgressMs: 5})
	w := &hangupWriter{ResponseRecorder: httptest.NewRecorder(), gate: 6001}
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))

	waitFor(t, "verdict cached", func() bool { return s.solve.cache.len() == 1 })
	if st := s.Stats(); st["solve_partial"] != 0 || st["parked_solvers"] != 0 {
		t.Fatalf("finished solve counted partial: %+v", st)
	}
	code, ok, fail := postSolve(t, ts.URL, SolveRequest{Game: "block", Position: "6001"})
	if code != http.StatusOK || !ok.Cached || ok.Verdict != "proven" {
		t.Fatalf("repeat: status %d %+v %+v", code, ok, fail)
	}
}

// TestSolveCoalescing: concurrent identical unary solves share one
// leader.
func TestSolveCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Pools: 1})
	const n = 4
	type res struct {
		code int
		ok   SolveResponse
	}
	results := make(chan res, n)
	for i := 0; i < n; i++ {
		go func() {
			// A race build on a busy host needs more than the 2s default.
			code, ok, _ := postSolve(t, ts.URL, SolveRequest{Game: "nim", Position: "6,7,8,9", DeadlineMs: 20000})
			results <- res{code, ok}
		}()
	}
	coalesced := 0
	for i := 0; i < n; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("status %d", r.code)
		}
		if r.ok.Verdict != "disproven" { // 6^7^8^9 = 0
			t.Fatalf("verdict %q", r.ok.Verdict)
		}
		if r.ok.Coalesced {
			coalesced++
		}
	}
	// Timing may let some requests arrive after completion (cache hits);
	// the stats must show every request answered and none failed.
	if s.Stats()["failed"] != 0 {
		t.Fatalf("failed searches: %+v", s.Stats())
	}
	_ = coalesced // any split between coalesced/cached/leader is legal
}
