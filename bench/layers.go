package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"gametree/internal/engine"
	"gametree/internal/faultnet"
	"gametree/internal/games"
	"gametree/internal/serve"
	"gametree/internal/shard"
	"gametree/internal/stats"
	"gametree/internal/transport"
)

// The micro-timings of the layers step: public functions of each layer
// called in a loop on a fixed seeded sample, from outside the packages.
// They do not depend on the workload, so every traced run reports the
// same set; what a workload adds are the counters of its traced rounds.

// batches is how often each micro-timing loop is repeated; the median
// batch is reported, so one pre-empted batch does not show.
const batches = 7

// perCall runs f n times per batch and returns the median batch's
// nanoseconds per call.
func perCall(n int, f func()) float64 {
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// gameSample is a breadth-first sample of one game's positions.
type gameSample struct {
	name  string
	nodes []engine.Position
}

func bfs(roots []engine.Position, n int) []engine.Position {
	nodes := append([]engine.Position(nil), roots...)
	for i := 0; i < len(nodes) && len(nodes) < n; i++ {
		nodes = append(nodes, nodes[i].Moves()...)
	}
	if len(nodes) > n {
		nodes = nodes[:n]
	}
	return nodes
}

// gameSamples draws, per game, a few roots the way the workloads do and
// expands them breadth-first to n positions.
func gameSamples(rng *rand.Rand, n int) []gameSample {
	parse := func(ops []op) []engine.Position {
		var roots []engine.Position
		for _, o := range ops {
			if p, _, err := serve.ParsePosition(o.Game, o.Pos); err == nil {
				roots = append(roots, p)
			}
		}
		return roots
	}
	var nim, kayles []engine.Position
	for _, p := range parse(genSolve(rng, 64)) {
		switch p.(type) {
		case games.Nim:
			nim = append(nim, p)
		case games.Kayles:
			kayles = append(kayles, p)
		}
	}
	return []gameSample{
		{"connect4", bfs(parse(genConnect4(rng, 8)), n)},
		{"random", bfs(parse(genTree(1)(rng, 8)), n)},
		{"nim", bfs(nim, n)},
		{"kayles", bfs(kayles, n)},
	}
}

// gamesLayer times move generation (through AppendMoves where the game
// offers it, as the engine does), evaluation and hashing per position, and
// counts what move generation allocates.
func gamesLayer(m metricSet, samples []gameSample) {
	for _, g := range samples {
		var buf []engine.Position
		movegen := func() {
			for _, p := range g.nodes {
				if ma, ok := p.(engine.MoveAppender); ok {
					buf = ma.AppendMoves(buf[:0])
				} else {
					buf = p.Moves()
				}
			}
		}
		n := float64(len(g.nodes))
		pre := "games." + g.name + "."
		m.put(pre+"movegen_ns_per_node", perCall(1, movegen)/n)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		movegen()
		runtime.ReadMemStats(&after)
		m.put(pre+"allocs_per_node", float64(after.Mallocs-before.Mallocs)/n)
		m.put(pre+"alloc_bytes_per_node", float64(after.TotalAlloc-before.TotalAlloc)/n)

		var sink int64
		m.put(pre+"eval_ns_per_node", perCall(1, func() {
			for _, p := range g.nodes {
				sink += int64(p.Evaluate())
			}
		})/n)
		m.put(pre+"hash_ns_per_node", perCall(1, func() {
			for _, p := range g.nodes {
				if h, ok := p.(engine.Hasher); ok {
					sink += int64(h.Hash())
				}
			}
		})/n)
		_ = sink
	}
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// tableLayer times Store, a hitting Probe and a missing Probe on a table
// of the serve default size, keys spread so that every access is a cache
// miss of the machine, as in a search.
func tableLayer(m metricSet, n int) {
	t := engine.NewTable(1 << 20)
	i := uint64(0)
	m.put("table.store_ns", perCall(n, func() {
		i++
		t.Store(mix(i), int32(i), 5, engine.BoundExact, 0)
	}))
	var sink int32
	i = 0
	// The last batch of stores is the freshest; probe those keys.
	base := uint64(n * (batches - 1))
	m.put("table.probe_hit_ns", perCall(n, func() {
		i++
		v, _, _, _, _ := t.Probe(mix(base + 1 + i%uint64(n)))
		sink += v
	}))
	i = 0
	m.put("table.probe_miss_ns", perCall(n, func() {
		i++
		v, _, _, _, _ := t.Probe(mix(i) ^ 0x5555555555555555)
		sink += v
	}))
	_ = sink
}

// poolLayer: what a resident pool costs a search that barely needs it.
func poolLayer(m metricSet, rng *rand.Rand, W int, smoke bool) error {
	depth, calls := 8, 2000
	if smoke {
		depth, calls = 5, 100
	}
	var roots []engine.Position
	for i := 0; i < 6; i++ {
		roots = append(roots, games.NewRandomTree(rng.Uint64(), 5))
	}
	ctx := context.Background()
	p1 := engine.NewPool(1, nil, nil)
	defer p1.Close()
	var poolErr error
	seq := perCall(1, func() {
		for _, r := range roots {
			engine.Search(r, depth)
		}
	})
	one := perCall(1, func() {
		for _, r := range roots {
			if _, err := p1.Search(ctx, r, depth); err != nil {
				poolErr = err
			}
		}
	})
	m.put("pool.w1_vs_seq_x", ratio(seq, one))

	pw := engine.NewPool(W, nil, nil)
	defer pw.Close()
	lat := make([]float64, calls)
	for i := range lat {
		t0 := time.Now()
		if _, err := pw.Search(ctx, roots[0], 1); err != nil {
			poolErr = err
		}
		lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	m.put("pool.search_wake_us", median(lat))
	if poolErr != nil {
		return fmt.Errorf("pool layer: %w", poolErr)
	}
	return nil
}

// serveLayer: the pieces of the request path that are not search.
func serveLayer(m metricSet, rng *rand.Rand, W, n int) error {
	root := randomRoot(rng)
	m.put("serve.parse_ns", perCall(n, func() { _, _, _ = serve.ParsePosition("random", root) }))
	body, err := json.Marshal(serve.SearchRequest{Game: "random", Position: root, Depth: 8})
	if err != nil {
		return err
	}
	m.put("serve.json_req_decode_ns", perCall(n, func() {
		var r serve.SearchRequest
		_ = json.Unmarshal(body, &r) // body was marshalled two lines up
	}))
	resp := serve.SearchResponse{Game: "random", Position: root, Depth: 8, Value: -317, Best: 2, Nodes: 16384, ElapsedMs: 1.2345, QueueMs: 0.0123}
	m.put("serve.json_resp_encode_ns", perCall(n, func() { _, _ = json.Marshal(resp) }))

	srv := serve.New(serve.Config{Workers: W})
	h := srv.Handler()
	var bad error
	hit := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			bad = fmt.Errorf("serve layer: in-process request answered %d", rec.Code)
		}
	}
	hit() // the miss that fills the cache
	handlerUs := perCall(n/4+1, hit) / 1e3
	m.put("serve.handler_hit_us", handlerUs)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("serve layer: %w", err)
	}
	hs := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // ErrServerClosed after Close below
	}()
	client := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
	url := "http://" + ln.Addr().String() + "/v1/search"
	loopUs := perCall(n/4+1, func() {
		r, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			bad = err
			return
		}
		_, _ = io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}) / 1e3
	m.put("serve.http_loopback_us", loopUs-handlerUs)
	client.CloseIdleConnections()
	_ = hs.Close()
	<-served
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Drain(ctx) // nothing is in flight
	return bad
}

// shardLayer: the ring's per-task costs that are not search or network.
func shardLayer(m metricSet, rng *rand.Rand, n int) error {
	root := randomRoot(rng)
	_, key, err := serve.ParsePosition("random", root)
	if err != nil {
		return err
	}
	task := &shard.Envelope{Kind: shard.KindTask, ID: 123456, Game: "random", Pos: root, Depth: 7,
		SentNs: time.Now().UnixNano(), Trace: "0123456789abcdef", Epoch: 3}
	codec := shard.Codec{}
	wire, err := codec.Encode(task)
	if err != nil {
		return err
	}
	m.put("shard.codec_encode_ns", perCall(n, func() { _, _ = codec.Encode(task) }))
	m.put("shard.codec_decode_ns", perCall(n, func() { _, _ = codec.Decode(wire) }))
	m.put("shard.envelope_bytes", float64(len(wire)))
	m.put("shard.expand_us", perCall(n, func() { _, _ = serve.Expand("random", root) })/1e3)
	ring := shard.NewRing([]int{1, 2})
	m.put("shard.ring_owner_ns", perCall(n, func() { ring.OwnerString(key) }))

	pkt := faultnet.Packet{From: 0, To: 1, Payload: task}
	frame, err := transport.EncodeFrame(pkt, codec)
	if err != nil {
		return err
	}
	m.put("transport.frame_encode_ns", perCall(n, func() { _, _ = transport.EncodeFrame(pkt, codec) }))
	m.put("transport.frame_decode_ns", perCall(n, func() { _, _ = transport.DecodeFrame(frame, codec) }))
	return nil
}

// transportLayer: 1 KiB ping-pong between two transport.TCP endpoints on
// loopback, one message in flight.
func transportLayer(m metricSet, n int) error {
	var ends [2]*transport.TCP
	for i := range ends {
		tr, err := transport.New(transport.Config{Listen: "127.0.0.1:0", Local: []int{i}, Codec: transport.Bytes{}})
		if err != nil {
			return fmt.Errorf("transport layer: %w", err)
		}
		defer tr.Close()
		ends[i] = tr
	}
	ends[0].SetPeer(1, ends[1].Addr())
	ends[1].SetPeer(0, ends[0].Addr())
	payload := make([]byte, 1024)
	pong := make(chan struct{}, 1) // one message in flight
	ends[1].Start(func(p faultnet.Packet) { ends[1].Send(faultnet.Packet{From: 1, To: 0, Payload: p.Payload}) })
	ends[0].Start(func(faultnet.Packet) {
		select {
		case pong <- struct{}{}:
		default:
		}
	})
	ping := func(wait time.Duration) bool {
		ends[0].Send(faultnet.Packet{From: 0, To: 1, Payload: payload})
		select {
		case <-pong:
			return true
		case <-time.After(wait):
			return false
		}
	}
	// The transport drops what it cannot deliver yet; ping until both
	// streams are up.
	for deadline := time.Now().Add(5 * time.Second); !ping(50 * time.Millisecond); {
		if time.Now().After(deadline) {
			return fmt.Errorf("transport layer: no echo within 5s")
		}
	}
	rtt := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if ping(time.Second) {
			rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	m.put("transport.rtt_us_p50", stats.Quantile(rtt, 0.50))
	m.put("transport.rtt_us_p95", stats.Quantile(rtt, 0.95))
	return nil
}

// microLayers runs every micro-timing.
func microLayers(seed int64, W int, smoke bool) (metricSet, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x6c61796572)) // "layer"
	nodes, n := 20000, 20000
	if smoke {
		nodes, n = 400, 200
	}
	m := metricSet{}
	gamesLayer(m, gameSamples(rng, nodes))
	tableLayer(m, n)
	if err := poolLayer(m, rng, W, smoke); err != nil {
		return nil, err
	}
	if err := serveLayer(m, rng, W, n); err != nil {
		return nil, err
	}
	if err := shardLayer(m, rng, n); err != nil {
		return nil, err
	}
	if err := transportLayer(m, n/10+1); err != nil {
		return nil, err
	}
	return m, nil
}

func cmdLayers(args []string) int {
	f, fs := newRunFlags("bench layers")
	if err := fs.Parse(args); err != nil || fs.NArg() > 0 {
		return 2
	}
	if err := requireCores(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	m, err := microLayers(f.seed, wideWorkers(), f.smoke)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-36s %s %s\n", name, strconv.FormatFloat(m[name].Value, 'f', 3, 64), m[name].Unit)
	}
	return 0
}
