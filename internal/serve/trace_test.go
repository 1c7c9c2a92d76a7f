package serve

// The serving layer's half of the request-trace contract: header
// adoption and echo, 1-in-N sampling, the request/queue/search spans,
// and the JSONL access log.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"gametree/internal/reqtrace"
)

// syncBuf is an io.Writer safe to read while the server writes.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func tracerSpans(tr *reqtrace.Tracer, trace, stage string) []reqtrace.Span {
	spans, _ := tr.Spans()
	var out []reqtrace.Span
	for _, s := range spans {
		if s.Trace == trace && s.Stage == stage {
			out = append(out, s)
		}
	}
	return out
}

// TestTraceHeaderAdopted: an inbound X-GT-Trace is honoured regardless
// of sampling, echoed on the response, and stamps the request, queue and
// search spans — on both endpoints.
func TestTraceHeaderAdopted(t *testing.T) {
	tr := reqtrace.New(0, "single", 0, 0) // sampling off: only the header opts in
	_, ts := newTestServer(t, Config{Workers: 2, Pools: 1, Tracer: tr})

	searchBody, _ := json.Marshal(SearchRequest{Game: "ttt", Depth: 3})
	solveBody, _ := json.Marshal(SolveRequest{Game: "nim", Position: "1,2,4"})
	for _, tc := range []struct {
		path, trace string
		body        []byte
	}{
		{"/v1/search", "tr-serve-1", searchBody},
		{"/v1/solve", "tr-solve-1", solveBody},
	} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+tc.path, bytes.NewReader(tc.body))
		req.Header.Set("X-GT-Trace", tc.trace)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("X-GT-Trace"); got != tc.trace {
			t.Fatalf("%s: echoed trace header: got %q, want %s", tc.path, got, tc.trace)
		}
		reqs := tracerSpans(tr, tc.trace, reqtrace.StageRequest)
		if len(reqs) != 1 {
			t.Fatalf("%s: request spans: got %d, want 1", tc.path, len(reqs))
		}
		if !strings.HasPrefix(reqs[0].Note, "200") {
			t.Errorf("%s: request span note: got %q, want 200 ...", tc.path, reqs[0].Note)
		}
		if n := len(tracerSpans(tr, tc.trace, reqtrace.StageQueue)); n != 1 {
			t.Errorf("%s: queue spans: got %d, want 1", tc.path, n)
		}
		// The search span is recorded by the detached run goroutine and
		// can trail the response.
		waitFor(t, "search span", func() bool {
			return len(tracerSpans(tr, tc.trace, reqtrace.StageSearch)) == 1
		})
	}

	// A traced stream still flushes frame by frame: the status wrapper must
	// not hide the connection's Flush.
	rec := httptest.NewRecorder()
	stream := &ndjson{w: &statusWriter{ResponseWriter: rec}}
	if err := stream.frame("progress", SolveProgress{}); err != nil || !rec.Flushed {
		t.Errorf("frame through the status wrapper: err %v, flushed %v", err, rec.Flushed)
	}
}

// TestTraceSampling: sample 1 mints an ID for headerless requests;
// sample 0 leaves them untraced with zero recorded spans.
func TestTraceSampling(t *testing.T) {
	tr := reqtrace.New(0, "single", 1, 0)
	_, ts := newTestServer(t, Config{Workers: 2, Pools: 1, Tracer: tr})
	code, _, _, hdr := postSearch(t, ts.URL, SearchRequest{Game: "ttt", Depth: 2})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	id := hdr.Get("X-GT-Trace")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Fatalf("minted trace ID %q, want 16 hex digits", id)
	}
	if n := len(tracerSpans(tr, id, reqtrace.StageRequest)); n != 1 {
		t.Errorf("request spans for minted ID: got %d, want 1", n)
	}

	// Sampling off: neither endpoint mints an ID, records a span, or
	// allocates the status wrapper.
	off := reqtrace.New(0, "single", 0, 0)
	s2, ts2 := newTestServer(t, Config{Workers: 2, Pools: 1, Tracer: off})
	code, _, _, hdr = postSearch(t, ts2.URL, SearchRequest{Game: "ttt", Depth: 2})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got := hdr.Get("X-GT-Trace"); got != "" {
		t.Errorf("unsampled response carries trace header %q", got)
	}
	if rep := postKind(t, ts2.URL, "solve", "nim", "1,2,4", 0); rep.code != http.StatusOK || rep.hdr.Get("X-GT-Trace") != "" {
		t.Errorf("unsampled solve: status %d, trace header %q", rep.code, rep.hdr.Get("X-GT-Trace"))
	}
	if spans, _ := off.Spans(); len(spans) != 0 {
		t.Errorf("unsampled requests recorded %d spans", len(spans))
	}
	rec := httptest.NewRecorder()
	if w, rq := s2.begin(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", nil)); w != http.ResponseWriter(rec) || rq.sw != nil {
		t.Error("unsampled request got a status wrapper")
	}
}

// TestAccessLog: one JSON line per request — leader search, cache hit
// and a 4xx — each with outcome, latency and status.
func TestAccessLog(t *testing.T) {
	tr := reqtrace.New(0, "single", 1, 0)
	var buf syncBuf
	s, ts := newTestServer(t, Config{Workers: 2, Pools: 1, Tracer: tr, AccessLog: &buf})

	if code, _, _, _ := postSearch(t, ts.URL, SearchRequest{Game: "ttt", Depth: 2}); code != 200 {
		t.Fatalf("search status %d", code)
	}
	if code, ok, _, _ := postSearch(t, ts.URL, SearchRequest{Game: "ttt", Depth: 2}); code != 200 || !ok.Cached {
		t.Fatalf("expected cache hit, got status %d cached=%v", code, ok.Cached)
	}
	if code, _, _, _ := postSearch(t, ts.URL, SearchRequest{Game: "nope", Depth: 2}); code != http.StatusBadRequest {
		t.Fatalf("bad game status %d", code)
	}

	// The solve endpoint logs through the same step: a verdict, its replay
	// from the cache, a budget-stopped partial, and a coalesced pair.
	if code, _, _ := postSolve(t, ts.URL, SolveRequest{Game: "nim", Position: "1,2,4"}); code != 200 {
		t.Fatalf("solve status %d", code)
	}
	if code, ok, _ := postSolve(t, ts.URL, SolveRequest{Game: "nim", Position: "1,2,4"}); code != 200 || !ok.Cached {
		t.Fatalf("expected solve cache hit, got status %d cached=%v", code, ok.Cached)
	}
	if code, ok, _ := postSolve(t, ts.URL, SolveRequest{Game: "nim", Position: "9,10,11,12", MaxNodes: 50}); code != 200 || !ok.Partial {
		t.Fatalf("expected partial solve, got status %d partial=%v", code, ok.Partial)
	}
	base := s.Stats()
	var pair sync.WaitGroup
	post := func() {
		defer pair.Done()
		if rep := postKind(t, ts.URL, "solve", "block", "7101", 5000); rep.code != 200 {
			t.Errorf("coalesced pair: status %d", rep.code)
		}
	}
	pair.Add(2)
	go post()
	waitFor(t, "leader admitted", func() bool { return s.Stats()["admitted"] == base["admitted"]+1 })
	go post()
	waitFor(t, "joiner coalesced", func() bool { return s.Stats()["coalesced"] == base["coalesced"]+1 })
	testGates.release(7101)
	pair.Wait()

	waitFor(t, "8 access-log lines", func() bool {
		return strings.Count(buf.String(), "\n") == 8
	})
	type line struct {
		Trace   string `json:"trace"`
		Game    string `json:"game"`
		Depth   int    `json:"depth"`
		Outcome string `json:"outcome"`
		QueueNs int64  `json:"queue_ns"`
		TotalNs int64  `json:"total_ns"`
		Status  int    `json:"status"`
	}
	var lines []line
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("bad access-log line %q: %v", raw, err)
		}
		lines = append(lines, l)
	}
	if lines[0].Outcome != "search" || lines[0].Status != 200 || lines[0].Game != "ttt" ||
		lines[0].Depth != 2 || lines[0].Trace == "" || lines[0].TotalNs <= 0 {
		t.Errorf("leader line: %+v", lines[0])
	}
	if lines[1].Outcome != "cache-hit" || lines[1].Status != 200 {
		t.Errorf("cache-hit line: %+v", lines[1])
	}
	if lines[2].Status != http.StatusBadRequest || lines[2].Outcome != "" {
		t.Errorf("bad-request line: %+v", lines[2])
	}
	if lines[3].Outcome != "solve" || lines[3].Status != 200 || lines[3].Game != "nim" ||
		lines[3].Trace == "" || lines[3].TotalNs <= 0 {
		t.Errorf("solve line: %+v", lines[3])
	}
	if lines[4].Outcome != "cache-hit" || lines[4].Game != "nim" {
		t.Errorf("solve cache-hit line: %+v", lines[4])
	}
	if lines[5].Outcome != "partial" || lines[5].Status != 200 {
		t.Errorf("partial solve line: %+v", lines[5])
	}
	// The pair finishes in either order.
	if got := []string{lines[6].Outcome, lines[7].Outcome}; !(got[0] == "solve" && got[1] == "coalesced") &&
		!(got[0] == "coalesced" && got[1] == "solve") {
		t.Errorf("coalesced pair lines: %+v %+v", lines[6], lines[7])
	}
}

// TestGTTraceEndpoint: the mux serves /debug/gttrace with the process
// dump (and an empty dump when tracing is off).
func TestGTTraceEndpoint(t *testing.T) {
	tr := reqtrace.New(0, "single", 1, 0)
	_, ts := newTestServer(t, Config{Workers: 2, Pools: 1, Tracer: tr})
	if code, _, _, _ := postSearch(t, ts.URL, SearchRequest{Game: "ttt", Depth: 2}); code != 200 {
		t.Fatalf("search failed")
	}
	resp, err := http.Get(ts.URL + "/debug/gttrace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d reqtrace.Dump
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if d.Role != "single" || d.Sample != 1 || len(d.Spans) == 0 {
		t.Errorf("dump: role=%q sample=%d spans=%d", d.Role, d.Sample, len(d.Spans))
	}
}
