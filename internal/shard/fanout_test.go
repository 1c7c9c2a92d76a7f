package shard

// The demand-driven fan-out: a search fans out over the ring only while
// a worker would otherwise idle, and otherwise ships whole to one worker,
// which expands and folds it on its own pool. Either way the answer is
// engine.Search's.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gametree/internal/engine"
	"gametree/internal/serve"
)

// TestFanOutDecision: admit fans a search out iff the searches in flight,
// the new one counted, are fewer than the live workers; a dead worker
// does not count, and leave gives the slot back.
func TestFanOutDecision(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	for _, tc := range []struct {
		workers, active int
		dead            []int
		want            bool
	}{
		{1, 0, nil, false}, // a one-worker ring never fans out
		{2, 0, nil, true},  // a lone search spreads over an idle ring
		{2, 1, nil, false},
		{3, 1, nil, true},
		{3, 2, nil, false},
		{3, 0, []int{2}, true},
		{3, 1, []int{2}, false}, // the dead worker is no spare
		{2, 0, []int{1}, false},
		{2, 0, []int{1, 2}, false}, // an empty ring ships whole, to the fallback pool
	} {
		procs := make([]int, tc.workers)
		for i := range procs {
			procs[i] = i + 1
		}
		p := newProtocol(Config{Workers: procs}.withDefaults(), rand.New(rand.NewSource(1)))
		p.start(now)
		for _, d := range tc.dead {
			p.lastPing[d] = now.Add(-p.deadAfter)
		}
		p.searches = tc.active
		name := fmt.Sprintf("%d workers, %d dead, %d active", tc.workers, len(tc.dead), tc.active)
		if got := p.admit(now); got != tc.want {
			t.Errorf("%s: admit fans out %v, want %v", name, got, tc.want)
		}
		ring, worker := int64(0), int64(1)
		if tc.want {
			ring, worker = 1, 0
		}
		if p.searches != tc.active+1 || p.fannedRing != ring || p.fannedWorker != worker {
			t.Errorf("%s: after admit %d searches, fanned ring=%d worker=%d", name, p.searches, p.fannedRing, p.fannedWorker)
		}
		p.leave(now)
		if p.searches != tc.active {
			t.Errorf("%s: after leave %d searches, want %d", name, p.searches, tc.active)
		}
	}
}

// TestCodecPlies: Plies marshals away when zero, so a frame from before
// it decodes as a plain search, and Decode refuses a task whose Plies is
// negative or exceeds its Depth.
func TestCodecPlies(t *testing.T) {
	c := Codec{}
	b, err := c.Encode(&Envelope{Kind: KindTask, ID: 1, Game: "random", Pos: "42:5", Depth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("plies")) {
		t.Errorf("a plain task encodes its zero plies: %s", b)
	}
	for _, tc := range []struct {
		frame string
		plies int
		ok    bool
	}{
		{`{"kind":"task","id":1,"depth":6}`, 0, true},
		{`{"kind":"task","id":1,"depth":6,"plies":1}`, 1, true},
		{`{"kind":"task","id":1,"depth":6,"plies":6}`, 6, true},
		{`{"kind":"task","id":1,"depth":6,"plies":7}`, 0, false},
		{`{"kind":"task","id":1,"plies":1}`, 0, false},
		{`{"kind":"task","id":1,"depth":6,"plies":-1}`, 0, false},
		{`{"kind":"result","id":1,"plies":-1}`, -1, true}, // only tasks expand
	} {
		v, err := c.Decode([]byte(tc.frame))
		if (err == nil) != tc.ok {
			t.Errorf("Decode(%s): err=%v, want accepted=%v", tc.frame, err, tc.ok)
			continue
		}
		if err == nil && v.(*Envelope).Plies != tc.plies {
			t.Errorf("Decode(%s): plies %d, want %d", tc.frame, v.(*Envelope).Plies, tc.plies)
		}
	}
}

// fanOutCases are served positions with their depths, among them the
// three Connect-4 positions whose root ties a search of the whole root
// on a tabled pool breaks, ordering the root's children, at depth 5.
var fanOutCases = []struct {
	game, pos string
	depth     int
}{
	{"connect4", "1442", 5},
	{"connect4", "1402", 5},
	{"connect4", "0240", 5},
	{"connect4", "33", 5},
	{"connect4", "", 4},
	{"ttt", "", 5},
	{"ttt", "X...O....", 5},
	{"random", "42:5", 6},
	{"random", "77:4", 6},
	{"random", "9:3", 5},
}

// TestFanOutSaturatedRingExact: four callers on a two-worker ring keep
// it busy, so most searches ship whole to a worker with a table and two
// pool workers; every (Value, Best) must still be engine.Search's.
func TestFanOutSaturatedRingExact(t *testing.T) {
	cl := newCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	want := make([]engine.Result, len(fanOutCases))
	for i, tc := range fanOutCases {
		want[i] = reference(t, tc.game, tc.pos, tc.depth)
	}
	const callers, rounds = 4, 9
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range fanOutCases {
					i := (k + c) % len(fanOutCases)
					tc := fanOutCases[i]
					got, err := cl.coord.Search(ctx, tc.game, tc.pos, tc.depth)
					if err == nil && (got.Value != want[i].Value || got.Best != want[i].Best) {
						err = fmt.Errorf("got (v=%d best=%d), sequential (v=%d best=%d)", got.Value, got.Best, want[i].Value, want[i].Best)
					}
					if err != nil {
						errs <- fmt.Errorf("%s %q d=%d: %w", tc.game, tc.pos, tc.depth, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s := state(cl.coord)
	if s.fannedRing+s.fannedWorker != callers*rounds*int64(len(fanOutCases)) || s.searches != 0 || s.pending != 0 {
		t.Errorf("after every search returned: fanned ring=%d worker=%d, %d searches and %d tasks in flight",
			s.fannedRing, s.fannedWorker, s.searches, s.pending)
	}
	if s.fannedWorker == 0 {
		t.Error("no search shipped whole: the ring was never saturated")
	}
}

// TestFanOutOneWorkerExact: a one-worker ring never fans out, and the
// worker's own expansion returns engine.Search's answer at every
// expansion depth.
func TestFanOutOneWorkerExact(t *testing.T) {
	cl := newCluster(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, plies := range []int{1, 2, 3} {
		cl.coord.cfg.ExpandDepth = plies
		for _, tc := range fanOutCases {
			want := reference(t, tc.game, tc.pos, tc.depth)
			got, err := cl.coord.Search(ctx, tc.game, tc.pos, tc.depth)
			if err != nil {
				t.Fatalf("expand %d %s %q d=%d: %v", plies, tc.game, tc.pos, tc.depth, err)
			}
			if got.Value != want.Value || got.Best != want.Best {
				t.Errorf("expand %d %s %q d=%d: got (v=%d best=%d), sequential (v=%d best=%d)",
					plies, tc.game, tc.pos, tc.depth, got.Value, got.Best, want.Value, want.Best)
			}
		}
	}
	if s := state(cl.coord); s.fannedRing != 0 || s.fannedWorker != 3*int64(len(fanOutCases)) {
		t.Errorf("fanned ring=%d worker=%d, want 0 and %d", s.fannedRing, s.fannedWorker, 3*len(fanOutCases))
	}
}

// TestLocalEvaluatorNodes: a root shipped whole and folded by the local
// dispatch visits within 1% of the nodes a plain one-worker pool search
// of the same root does, and returns its answer. The narrowing is what
// keeps it there: with each brother searched on its eldest's window
// alone, these roots visit about 10% more.
func TestLocalEvaluatorNodes(t *testing.T) {
	pool := engine.NewPool(1, nil, nil)
	defer pool.Close()
	ctx := context.Background()
	roots, depth := 60, 7
	if testing.Short() {
		roots = 20
	}
	rng := rand.New(rand.NewSource(20))
	var folded, plain int64
	for i := 0; i < roots; i++ {
		pos := fmt.Sprintf("%d:5", rng.Uint64())
		got, err := evaluate(ctx, pool, &Envelope{Kind: KindTask, Game: "random", Pos: pos, Depth: depth, Plies: 1})
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := serve.ParsePosition("random", pos)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pool.Search(ctx, p, depth)
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want.Value || got.Best != want.Best {
			t.Fatalf("%s: folded (v=%d best=%d), pool (v=%d best=%d)", pos, got.Value, got.Best, want.Value, want.Best)
		}
		folded += got.Nodes
		plain += want.Nodes
	}
	excess := float64(folded)/float64(plain) - 1
	t.Logf("%d roots at depth %d: local %d nodes, pool %d (%+.2f%%)", roots, depth, folded, plain, 100*excess)
	if excess > 0.01 {
		t.Errorf("the local evaluator visited %+.2f%% nodes over a plain pool search, want within 1%%", 100*excess)
	}
}

// TestTiedBestIsOptimal: on the three Connect-4 roots whose depth-5
// value several moves reach, a tabled local server and a two-worker ring
// return the same value, and each returns as best one of the optimal
// moves — one whose depth-4 value is the negation of the root's. Which
// tied move it is depends on the backend: the table orders the children
// of table nodes, the ring returns engine.Search's move.
func TestTiedBestIsOptimal(t *testing.T) {
	cl := newCluster(t, 2)
	backends := []struct {
		name string
		srv  *serve.Server
	}{
		{"local", serve.New(serve.Config{Workers: 2})},
		{"ring", serve.New(serve.Config{Backend: cl.coord, CacheEntries: -1})},
	}
	for _, b := range backends {
		t.Cleanup(func() { _ = b.srv.Drain(context.Background()) })
	}
	for _, tc := range fanOutCases[:3] {
		p, _, err := serve.ParsePosition(tc.game, tc.pos)
		if err != nil {
			t.Fatal(err)
		}
		kids := p.Moves()
		var values []int32
		for _, b := range backends {
			rec := httptest.NewRecorder()
			body := fmt.Sprintf(`{"game":%q,"position":%q,"depth":%d}`, tc.game, tc.pos, tc.depth)
			b.srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/search", strings.NewReader(body)))
			var resp serve.SearchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != 200 || err != nil {
				t.Fatalf("%s %q: status %d, %v: %s", b.name, tc.pos, rec.Code, err, rec.Body)
			}
			if resp.Best < 0 || resp.Best >= len(kids) {
				t.Fatalf("%s %q: best %d outside the %d moves", b.name, tc.pos, resp.Best, len(kids))
			}
			if v := engine.Search(kids[resp.Best], tc.depth-1).Value; v != -resp.Value {
				t.Errorf("%s %q: best %d is worth %d to the mover, the root %d", b.name, tc.pos, resp.Best, -v, resp.Value)
			}
			t.Logf("%s %q d=%d: value %d best %d", b.name, tc.pos, tc.depth, resp.Value, resp.Best)
			values = append(values, resp.Value)
		}
		if values[0] != values[1] {
			t.Errorf("%q: local value %d, ring value %d", tc.pos, values[0], values[1])
		}
	}
}
