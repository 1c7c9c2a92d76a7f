package shard

// End-to-end tests of the tier over real TCP sockets: a coordinator and
// two workers, each with its own transport on an ephemeral 127.0.0.1
// port, exactly the multi-process topology minus the process boundary.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"gametree/internal/engine"
	"gametree/internal/reqtrace"
	"gametree/internal/serve"
	"gametree/internal/telemetry"
	"gametree/internal/transport"
)

type cluster struct {
	coord       *Coordinator
	workers     []*Worker
	nets        []*transport.TCP // index 0 = coordinator
	coordRec    *telemetry.Recorder
	workRecs    []*telemetry.Recorder
	coordTracer *reqtrace.Tracer
	workTracers []*reqtrace.Tracer
}

// newCluster wires a coordinator (proc 0) and n workers (procs 1..n)
// over per-process TCP transports, with timeouts tightened for tests.
// Optional mutators adjust the coordinator config before construction.
func newCluster(t *testing.T, n int, opts ...func(*Config)) *cluster {
	t.Helper()
	cl := &cluster{}
	procs := make([]int, n)
	nets := make([]*transport.TCP, n+1)
	addrs := make(map[int]string, n+1)
	for i := 0; i <= n; i++ {
		var local int
		if i > 0 {
			local = i
			procs[i-1] = i
		}
		tr, err := transport.New(transport.Config{
			Listen: "127.0.0.1:0",
			Local:  []int{local},
			Codec:  Codec{},
		})
		if err != nil {
			t.Fatalf("transport %d: %v", i, err)
		}
		nets[i] = tr
		addrs[local] = tr.Addr()
	}
	// Full mesh: everyone knows everyone (hellos would fill this in a
	// portfile deployment; tests want determinism from the first frame).
	for i := 0; i <= n; i++ {
		for p, a := range addrs {
			if (i == 0 && p == 0) || (i > 0 && p == i) {
				continue
			}
			nets[i].SetPeer(p, a)
		}
	}
	cl.nets = nets

	for i := 1; i <= n; i++ {
		rec := telemetry.NewRecorder()
		cl.workRecs = append(cl.workRecs, rec)
		tracer := reqtrace.New(i, "worker", 0, 0)
		cl.workTracers = append(cl.workTracers, tracer)
		w := NewWorker(WorkerConfig{
			Net:           nets[i],
			Self:          i,
			Coordinator:   0,
			Workers:       procs,
			PoolWorkers:   2,
			TableEntries:  1 << 12,
			PingEvery:     25 * time.Millisecond,
			AdvertiseAddr: nets[i].Addr(),
			Telemetry:     rec,
			Tracer:        tracer,
		})
		w.Start()
		cl.workers = append(cl.workers, w)
	}
	cl.coordRec = telemetry.NewRecorder()
	cl.coordTracer = reqtrace.New(0, "coordinator", 0, 0)
	cfg := Config{
		Net:         nets[0],
		Self:        0,
		Workers:     procs,
		ExpandDepth: 1,
		TaskTimeout: 150 * time.Millisecond,
		DeadAfter:   250 * time.Millisecond,
		HelloEvery:  50 * time.Millisecond,
		PeerAddrs:   addrs,
		Telemetry:   cl.coordRec,
		Tracer:      cl.coordTracer,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	cl.coord = NewCoordinator(cfg)
	cl.coordTracer.SetOffsets(cl.coord.ClockOffsets)
	cl.coord.Start()
	t.Cleanup(func() {
		cl.coord.Close()
		for _, w := range cl.workers {
			w.Close()
		}
	})
	return cl
}

// reference runs the sequential engine on the same position.
func reference(t *testing.T, game, pos string, depth int) engine.Result {
	t.Helper()
	p, _, err := serve.ParsePosition(game, pos)
	if err != nil {
		t.Fatalf("reference parse %s %q: %v", game, pos, err)
	}
	return engine.Search(p, depth)
}

func TestShardExactValues(t *testing.T) {
	cl := newCluster(t, 2)
	cases := []struct {
		game, pos string
		depth     int
	}{
		{"ttt", "", 5},
		{"ttt", "XOX.O..X.", 4},
		{"ttt", "XXXOO....", 3}, // terminal root
		{"connect4", "33", 4},
		{"random", "42:4", 6},
		{"random", "7:3", 7},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, tc := range cases {
		want := reference(t, tc.game, tc.pos, tc.depth)
		got, err := cl.coord.Search(ctx, tc.game, tc.pos, tc.depth)
		if err != nil {
			t.Fatalf("%s %q d=%d: %v", tc.game, tc.pos, tc.depth, err)
		}
		if got.Value != want.Value || got.Best != want.Best {
			t.Errorf("%s %q d=%d: got (v=%d best=%d), sequential (v=%d best=%d)",
				tc.game, tc.pos, tc.depth, got.Value, got.Best, want.Value, want.Best)
		}
	}
	if state(cl.coord).pending != 0 {
		t.Errorf("%d tasks left pending after all searches returned", state(cl.coord).pending)
	}
	if n := cl.coordRec.Snapshot().Total.ShardTasks; n == 0 {
		t.Error("coordinator recorded no shard tasks")
	}
}

func TestShardExpandDepth2(t *testing.T) {
	cl := newCluster(t, 2)
	cl.coord.cfg.ExpandDepth = 2
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, tc := range []struct {
		game, pos string
		depth     int
	}{
		{"random", "9:3", 5},
		{"ttt", "X...O....", 4},
		{"connect4", "", 3},
	} {
		want := reference(t, tc.game, tc.pos, tc.depth)
		got, err := cl.coord.Search(ctx, tc.game, tc.pos, tc.depth)
		if err != nil {
			t.Fatalf("%s %q: %v", tc.game, tc.pos, err)
		}
		if got.Value != want.Value || got.Best != want.Best {
			t.Errorf("%s %q d=%d: got (v=%d best=%d), sequential (v=%d best=%d)",
				tc.game, tc.pos, tc.depth, got.Value, got.Best, want.Value, want.Best)
		}
	}
}

// TestShardWorkerCrashReissue is the tier's reliability story: kill one
// worker's process (transport torn down, no goodbye) mid-burst and the
// coordinator must still return exact values for every search, rerouting
// the dead shard's tasks to the survivor.
func TestShardWorkerCrashReissue(t *testing.T) {
	cl := newCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Warm-up: one search with both workers up.
	if _, err := cl.coord.Search(ctx, "random", "1:3", 5); err != nil {
		t.Fatalf("warm-up: %v", err)
	}

	// Crash worker 1 the hard way: sever its sockets and stop its pings.
	// (Close on the transport alone is the closest in-process stand-in
	// for kill -9 — no protocol goodbye, connections reset.)
	cl.workers[0].Close()

	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(seed int) {
			want := reference(t, "random", "100:3", 5)
			got, err := cl.coord.Search(ctx, "random", "100:3", 5)
			if err == nil && (got.Value != want.Value || got.Best != want.Best) {
				err = errValueMismatch
			}
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatalf("search %d after crash: %v", i, err)
		}
	}
	// The failure detector needs DeadAfter of silence before it turns.
	deadline := time.Now().Add(10 * time.Second)
	for cl.coord.Alive(1) {
		if time.Now().After(deadline) {
			t.Fatal("crashed worker still considered alive after DeadAfter")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !cl.coord.Alive(2) {
		t.Error("surviving worker considered dead")
	}
}

var errValueMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "value or best-move mismatch vs sequential search" }

func TestShardCodec(t *testing.T) {
	c := Codec{}
	in := &Envelope{Kind: KindTask, ID: 7, Game: "random", Pos: "42:5", Depth: 6, SentNs: 123, EchoNs: 99, Trace: "tr-1"}
	b, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*Envelope); !reflect.DeepEqual(got, in) {
		t.Errorf("round trip: got %+v want %+v", got, in)
	}
	if _, err := c.Encode("not an envelope"); err == nil {
		t.Error("encoded a non-envelope")
	}
	if _, err := c.Decode([]byte("{{")); err == nil {
		t.Error("decoded garbage")
	}
	for _, frame := range []string{
		`{"kind":"nope"}`,
		// Workers trade no table entries: the retired remote-table
		// kinds are unknown like any other.
		`{"kind":"ttprobe","hash":11400714819323198485,"depth":9}`,
		`{"kind":"ttreply","hash":11400714819323198485,"value":1,"depth":9,"flag":2}`,
		`{"kind":"ttstore","hash":1,"value":-3,"depth":10,"flag":1,"best":4}`,
	} {
		if _, err := c.Decode([]byte(frame)); err == nil {
			t.Errorf("decoded unknown kind: %s", frame)
		}
	}
}
