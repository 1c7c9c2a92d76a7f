package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"gametree/internal/serve"
)

// TestClosedLoopExactValue drives a closed loop of ttt depth-9 searches
// at an in-process server for a few hundred milliseconds, then checks
// the verdict report hands the smoke scripts: every answer is the draw,
// so -expect 0 passes and -expect 1 fails.
func TestClosedLoopExactValue(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1, Pools: 1})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	}()

	cfg := config{
		url:      ts.URL,
		game:     "ttt",
		depth:    9,
		hot:      4,
		dup:      0.75,
		seed:     1,
		clients:  2,
		deadline: 5 * time.Second,
	}
	is := &httpIssuer{cfg: cfg, client: &http.Client{}}
	var c counters
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	runClosed(ctx, cfg, newWorkload(cfg), is, &c)
	wall := time.Since(start)

	if c.completed.Load() == 0 {
		t.Fatal("no request completed")
	}
	if n := c.failed.Load(); n != 0 {
		t.Fatalf("failed=%d, want 0", n)
	}

	cfg.hasExpect, cfg.expect = true, 0
	if !report(cfg, &c, wall) {
		t.Error("report with -expect 0 failed on the tic-tac-toe draw")
	}
	cfg.expect = 1
	if report(cfg, &c, wall) {
		t.Error("report with -expect 1 passed on the tic-tac-toe draw")
	}
}

// reportOutput returns what report prints for cfg over empty counters.
func reportOutput(t *testing.T, cfg config) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	var c counters
	report(cfg, &c, time.Second)
	os.Stdout = stdout
	w.Close()
	printed := string(<-out)
	r.Close()
	return printed
}

// TestReportDepthOnlyForSearch: /v1/solve takes no depth, so a solve
// run's summary names none; a search run's names the depth it used.
func TestReportDepthOnlyForSearch(t *testing.T) {
	solve := config{solve: true, game: "nim", depth: 8}
	if out := reportOutput(t, solve); strings.Contains(out, "depth=") {
		t.Errorf("solve report names a depth:\n%s", out)
	}
	search := config{game: "ttt", depth: 9}
	if out := reportOutput(t, search); !strings.Contains(out, "game=ttt depth=9 ") {
		t.Errorf("search report lacks its depth:\n%s", out)
	}
}
