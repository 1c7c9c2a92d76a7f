package shard

// The coordinator's cascade: the eldest frontier leaf is searched first
// and its value ships as a bound to the younger brothers. The root value
// and move must still be engine.Search's, at any expansion depth, and
// the cascade must actually save tasks where alpha-beta would cut.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gametree/internal/engine"
	"gametree/internal/faultnet"
	"gametree/internal/serve"
)

// TestCascadeMatchesSearch: (Value, Best) equals the sequential engine on
// every game served, at expansion depths 1, 2 and 3.
func TestCascadeMatchesSearch(t *testing.T) {
	cl := newCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cases := []struct {
		game, pos string
		depth     int
	}{
		{"random", "42:5", 6},
		{"random", "9:3", 5},
		{"random", "77:4", 6},
		{"ttt", "", 5},
		{"ttt", "X...O....", 5},
		{"connect4", "33", 5},
		{"connect4", "", 4},
	}
	for _, expand := range []int{1, 2, 3} {
		cl.coord.cfg.ExpandDepth = expand
		for _, tc := range cases {
			want := reference(t, tc.game, tc.pos, tc.depth)
			got, err := cl.coord.Search(ctx, tc.game, tc.pos, tc.depth)
			if err != nil {
				t.Fatalf("expand %d %s %q d=%d: %v", expand, tc.game, tc.pos, tc.depth, err)
			}
			if got.Value != want.Value || got.Best != want.Best {
				t.Errorf("expand %d %s %q d=%d: got (v=%d best=%d), sequential (v=%d best=%d)",
					expand, tc.game, tc.pos, tc.depth, got.Value, got.Best, want.Value, want.Best)
			}
		}
	}
	if n := state(cl.coord).pending; n != 0 {
		t.Errorf("%d tasks left pending after all searches returned", n)
	}
}

// TestCascadeEldestFirst scripts one search over a fake network: the
// eldest leaf is the only task out until it settles, on the full window;
// then its brothers go out together on (−∞, v₀), and the fold keeps the
// first strict improvement over the eldest.
func TestCascadeEldestFirst(t *testing.T) {
	fn := &fakeNet{}
	coord := NewCoordinator(Config{
		Net:         fn,
		Self:        0,
		Workers:     []int{1},
		TaskTimeout: 10 * time.Second, // the test settles tasks by hand; never reissue
		DeadAfter:   time.Minute,
		HelloEvery:  time.Hour,
	})
	coord.Start()
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type outcome struct {
		res engine.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := coord.Search(ctx, "random", "3:3", 3) // three root children
		done <- outcome{res, err}
	}()

	waitUntil(t, 10*time.Second, func() bool { return state(coord).pending == 1 })
	time.Sleep(50 * time.Millisecond) // room for a wrongly early second wave
	tasks := sentTasks(fn)
	if len(tasks) != 1 || state(coord).pending != 1 {
		t.Fatalf("before the eldest settled: %d tasks sent, %d pending; want 1 and 1", len(tasks), state(coord).pending)
	}
	eldest := tasks[0]
	if eldest.Alpha != nil || eldest.Beta != nil {
		t.Fatalf("eldest window (alpha=%v beta=%v), want the full window", eldest.Alpha, eldest.Beta)
	}
	const v0 = 4
	fn.inject(faultnet.Packet{From: 1, To: 0, Payload: &Envelope{Kind: KindResult, ID: eldest.ID, Epoch: eldest.Epoch, Value: v0, Nodes: 10}})

	waitUntil(t, 10*time.Second, func() bool { return state(coord).pending == 2 })
	tasks = sentTasks(fn)
	if len(tasks) != 3 {
		t.Fatalf("after the eldest settled: %d tasks sent, want 3", len(tasks))
	}
	for _, y := range tasks[1:] {
		if y.Alpha != nil || y.Beta == nil || *y.Beta != v0 {
			t.Fatalf("younger task %d window (alpha=%v beta=%v), want (nil, %d)", y.ID, y.Alpha, y.Beta, v0)
		}
	}
	// The first brother fails high (6 >= 4: no better for the root than
	// the eldest); the second is exact and improves the root to -2.
	fn.inject(faultnet.Packet{From: 1, To: 0, Payload: &Envelope{Kind: KindResult, ID: tasks[1].ID, Epoch: tasks[1].Epoch, Value: 6, Nodes: 20}})
	fn.inject(faultnet.Packet{From: 1, To: 0, Payload: &Envelope{Kind: KindResult, ID: tasks[2].ID, Epoch: tasks[2].Epoch, Value: 2, Nodes: 30}})
	out := <-done
	if out.err != nil {
		t.Fatalf("search: %v", out.err)
	}
	if out.res.Value != -2 || out.res.Best != 2 || out.res.Nodes != 60 {
		t.Fatalf("folded (v=%d best=%d nodes=%d), want (v=-2 best=2 nodes=60)", out.res.Value, out.res.Best, out.res.Nodes)
	}
}

// sentTasks lists the task envelopes the coordinator sent, in order.
func sentTasks(fn *fakeNet) []*Envelope {
	fn.mu.Lock()
	defer fn.mu.Unlock()
	var out []*Envelope
	for _, pkt := range fn.sent {
		if env, ok := pkt.Payload.(*Envelope); ok && env.Kind == KindTask {
			out = append(out, env)
		}
	}
	return out
}

// TestCascadeInteriorCutoff: at expansion depth 2 an interior node whose
// eldest child refutes it never dispatches that child's brothers, so
// some root needs fewer tasks than it has frontier leaves — and still
// gets the sequential answer.
func TestCascadeInteriorCutoff(t *testing.T) {
	cl := newCluster(t, 2)
	cl.coord.cfg.ExpandDepth = 2
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for seed := 1; seed <= 20; seed++ {
		pos := fmt.Sprintf("%d:4", seed)
		leaves := 0
		children, err := serve.Expand("random", pos)
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range children {
			grand, err := serve.Expand("random", ch)
			if err != nil {
				t.Fatal(err)
			}
			leaves += max(len(grand), 1) // a terminal child is a leaf itself
		}
		before := cl.coordRec.Snapshot().Total.ShardTasks
		want := reference(t, "random", pos, 5)
		got, err := cl.coord.Search(ctx, "random", pos, 5)
		if err != nil {
			t.Fatalf("%s: %v", pos, err)
		}
		if got.Value != want.Value || got.Best != want.Best {
			t.Fatalf("%s: got (v=%d best=%d), sequential (v=%d best=%d)", pos, got.Value, got.Best, want.Value, want.Best)
		}
		if tasks := cl.coordRec.Snapshot().Total.ShardTasks - before; tasks < int64(leaves) {
			t.Logf("%s: %d tasks for %d frontier leaves", pos, tasks, leaves)
			return
		}
	}
	t.Fatal("no root in 20 saved a task: the cascade never cut off an interior node")
}

// TestCascadeEmptyWindowRejected: the codec refuses a task whose window
// holds no value, and keeps one whose window is narrow but open.
func TestCascadeEmptyWindowRejected(t *testing.T) {
	c := Codec{}
	for _, tc := range []struct {
		frame string
		ok    bool
	}{
		{`{"kind":"task","id":1,"alpha":4,"beta":5}`, true},
		{`{"kind":"task","id":1,"beta":-2147483646}`, true},
		{`{"kind":"task","id":1,"beta":-2147483647}`, false},
		{`{"kind":"task","id":1,"alpha":5,"beta":5}`, false},
		{`{"kind":"task","id":1,"alpha":6,"beta":5}`, false},
		{`{"kind":"task","id":1,"alpha":2147483647}`, false},
		{`{"kind":"result","id":1,"alpha":6,"beta":5}`, true}, // only tasks carry a window
	} {
		_, err := c.Decode([]byte(tc.frame))
		if (err == nil) != tc.ok {
			t.Errorf("Decode(%s): err=%v, want accepted=%v", tc.frame, err, tc.ok)
		}
	}
}
