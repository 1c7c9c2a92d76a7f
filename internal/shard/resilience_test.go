package shard

// Self-healing behaviours of the tier, tested at two levels: white-box
// unit tests over a scripted in-memory network (epoch fencing, retry
// quarantine, dead-ring fallback — where exact packet injection matters),
// and end-to-end TCP tests for the rejoin story (kill a worker process,
// restart it on a fresh port, watch the coordinator re-admit and re-route).

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gametree/internal/engine"
	"gametree/internal/faultnet"
	"gametree/internal/telemetry"
	"gametree/internal/transport"
)

// fakeNet is a scripted network: sends are recorded, never delivered,
// and the test injects inbound packets directly into the coordinator's
// handler. Workers exist only as the packets the test forges for them.
type fakeNet struct {
	mu      sync.Mutex
	deliver func(faultnet.Packet)
	sent    []faultnet.Packet
}

func (f *fakeNet) Start(d func(faultnet.Packet)) { f.deliver = d }

func (f *fakeNet) Send(pkt faultnet.Packet) {
	f.mu.Lock()
	f.sent = append(f.sent, pkt)
	f.mu.Unlock()
}

func (f *fakeNet) Alive(int) bool                     { return true }
func (f *fakeNet) StalledUntil(int) (time.Time, bool) { return time.Time{}, false }
func (f *fakeNet) Close()                             {}
func (f *fakeNet) Stats() faultnet.Stats              { return faultnet.Stats{} }

func (f *fakeNet) inject(pkt faultnet.Packet) { f.deliver(pkt) }

// TestEpochFencing pins the tier's fencing invariant: a result stamped
// with an epoch below the task's current issue epoch is discarded, never
// folded — and the fresh-epoch answer that follows settles normally. The
// membership change is forced by a forged ping whose boot nonce flips,
// the restart signature a rejoined process produces.
func TestEpochFencing(t *testing.T) {
	fn := &fakeNet{}
	coord := NewCoordinator(Config{
		Net:         fn,
		Self:        0,
		Workers:     []int{1},
		TaskTimeout: 30 * time.Millisecond,
		DeadAfter:   10 * time.Second,
		HelloEvery:  time.Hour,
		RetryBudget: 1000, // the test settles tasks by hand; never quarantine
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
		res, err := coord.Search(ctx, "random", "3:2", 3)
		done <- outcome{res, err}
	}()

	// Wait for the leaves to be dispatched (random 3:2 has two children).
	waitUntil(t, 10*time.Second, func() bool { return coord.Pending() == 2 })
	var ids []uint64
	coord.mu.Lock()
	for id := range coord.pending {
		ids = append(ids, id)
	}
	coord.mu.Unlock()
	if ids[0] > ids[1] {
		ids[0], ids[1] = ids[1], ids[0] // ids are assigned in child order
	}

	// Two pings from worker 1 with different boot nonces: the second is a
	// restart signature, bumping the membership epoch to 2.
	fn.inject(faultnet.Packet{From: 1, To: 0, Payload: &Envelope{Kind: KindPing, Boot: 111}})
	fn.inject(faultnet.Packet{From: 1, To: 0, Payload: &Envelope{Kind: KindPing, Boot: 222}})
	if got := coord.Epoch(); got != 2 {
		t.Fatalf("epoch after forged restart = %d, want 2", got)
	}
	if got := coord.Rejoins(); got != 1 {
		t.Fatalf("rejoins = %d, want 1", got)
	}
	// A ping from a non-member must not move the epoch.
	fn.inject(faultnet.Packet{From: 99, To: 0, Payload: &Envelope{Kind: KindPing, Boot: 333}})
	if got := coord.Epoch(); got != 2 {
		t.Fatalf("epoch moved to %d on a foreign ping", got)
	}

	// Wait for the reissue loop to restamp both tasks at epoch 2.
	waitUntil(t, 10*time.Second, func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		for _, id := range ids {
			if p := coord.pending[id]; p == nil || p.issueEpoch != 2 {
				return false
			}
		}
		return true
	})

	// The ghost answers with the superseded epoch: both results must be
	// fenced — discarded with the tasks still pending, never folded.
	for _, id := range ids {
		fn.inject(faultnet.Packet{From: 1, To: 0, Payload: &Envelope{
			Kind: KindResult, ID: id, Epoch: 1, Value: 42, Best: 0,
		}})
	}
	if got := coord.FencedResults(); got != 2 {
		t.Fatalf("fenced = %d, want 2", got)
	}
	if got := coord.Pending(); got != 2 {
		t.Fatalf("pending = %d after fenced results, want 2 (fenced result settled a task)", got)
	}

	// Fresh-epoch answers settle the search; the folded value must come
	// from these, not the fenced 42s.
	fn.inject(faultnet.Packet{From: 1, To: 0, Payload: &Envelope{Kind: KindResult, ID: ids[0], Epoch: 2, Value: 5, Best: 0}})
	fn.inject(faultnet.Packet{From: 1, To: 0, Payload: &Envelope{Kind: KindResult, ID: ids[1], Epoch: 2, Value: 7, Best: 0}})
	out := <-done
	if out.err != nil {
		t.Fatalf("search: %v", out.err)
	}
	// Negamax fold over child values (5, 7): max(-5, -7) = -5, move 0.
	if out.res.Value != -5 || out.res.Best != 0 {
		t.Fatalf("folded (v=%d best=%d), want (v=-5 best=0) — a fenced value leaked into the fold", out.res.Value, out.res.Best)
	}
}

// TestReissueStaleDeadRingFallsBackLocal: with every worker dead and a
// fallback pool configured, the reissue path must deterministically hand
// stale tasks to local compute — exact answer, degraded counters up —
// rather than retrying into the void until quarantine.
func TestReissueStaleDeadRingFallsBackLocal(t *testing.T) {
	pool := engine.NewPool(2, nil, nil)
	defer pool.Close()
	fn := &fakeNet{}
	coord := NewCoordinator(Config{
		Net:         fn,
		Self:        0,
		Workers:     []int{1, 2},
		TaskTimeout: 20 * time.Millisecond,
		DeadAfter:   60 * time.Millisecond,
		HelloEvery:  time.Hour,
		Fallback:    pool,
	})
	coord.Start()
	defer coord.Close()

	// Workers start presumed alive, so the dispatch goes to the ring; no
	// ping ever arrives, the ring dies under the tasks, and reissue must
	// divert them to the pool.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	want := reference(t, "random", "5:3", 4)
	got, err := coord.Search(ctx, "random", "5:3", 4)
	if err != nil {
		t.Fatalf("degraded search: %v", err)
	}
	if got.Value != want.Value || got.Best != want.Best {
		t.Fatalf("degraded search (v=%d best=%d), sequential (v=%d best=%d)", got.Value, got.Best, want.Value, want.Best)
	}
	if coord.DegradedTasks() == 0 {
		t.Error("no tasks recorded as degraded")
	}
	if !coord.DegradedMode() {
		t.Error("ring fully dead but DegradedMode reports false")
	}
	if coord.Pending() != 0 {
		t.Errorf("%d tasks left pending", coord.Pending())
	}

	// With the ring known-dead up front, dispatch skips it entirely.
	before := coord.Quarantined()
	if _, err := coord.Search(ctx, "random", "6:3", 4); err != nil {
		t.Fatalf("second degraded search: %v", err)
	}
	if coord.Quarantined() != before {
		t.Error("degraded searches burned retry budget")
	}
}

// TestQuarantineTypedError: a task that exhausts its retry budget with no
// fallback pool must settle with the typed QuarantineError, not hang or
// return a generic failure.
func TestQuarantineTypedError(t *testing.T) {
	fn := &fakeNet{}
	coord := NewCoordinator(Config{
		Net:         fn,
		Self:        0,
		Workers:     []int{1},
		TaskTimeout: 15 * time.Millisecond,
		DeadAfter:   10 * time.Second, // worker stays "alive": frames just vanish
		HelloEvery:  time.Hour,
		RetryBudget: 2,
	})
	coord.Start()
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := coord.Search(ctx, "ttt", "XXXOO....", 3)
	if err == nil {
		t.Fatal("search over a black-hole ring succeeded")
	}
	var qe *QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("error %v (%T), want *QuarantineError", err, err)
	}
	if qe.Attempts != 2 {
		t.Errorf("quarantined after %d attempts, want 2 (the budget)", qe.Attempts)
	}
	if qe.Key == "" || qe.Task == 0 {
		t.Errorf("quarantine error missing identity: %+v", qe)
	}
	if coord.Quarantined() == 0 {
		t.Error("quarantine not counted")
	}
	if coord.Pending() != 0 {
		t.Errorf("%d tasks left pending after quarantine", coord.Pending())
	}
}

// TestShardWorkerRejoinNewAddress is the full self-healing loop over real
// sockets: kill a worker, restart it as a new process (fresh transport on
// a fresh port, fresh boot nonce), and require the coordinator to admit
// it back — epoch bumped, rejoin counted, tasks routed to it again — with
// every search staying exact throughout.
func TestShardWorkerRejoinNewAddress(t *testing.T) {
	cl := newCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := cl.coord.Search(ctx, "random", "1:3", 5); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	epoch0 := cl.coord.Epoch()

	// Kill worker 1 and wait for the death edge.
	cl.workers[0].Close()
	waitUntil(t, 10*time.Second, func() bool { return !cl.coord.Alive(1) })

	// "Restart" it: same processor id, new port, new boot nonce. Only the
	// coordinator's address is known — exactly what a portfile restart
	// sees — so the ping's advertised address must carry the re-route.
	tr, err := transport.New(transport.Config{
		Listen: "127.0.0.1:0",
		Local:  []int{1},
		Codec:  Codec{},
	})
	if err != nil {
		t.Fatalf("restart transport: %v", err)
	}
	tr.SetPeer(0, cl.nets[0].Addr())
	rec := telemetry.NewRecorder()
	w := NewWorker(WorkerConfig{
		Net:           tr,
		Self:          1,
		Coordinator:   0,
		Workers:       []int{1, 2},
		PoolWorkers:   2,
		TableEntries:  1 << 12,
		PingEvery:     25 * time.Millisecond,
		AdvertiseAddr: tr.Addr(),
		Telemetry:     rec,
	})
	w.Start()
	t.Cleanup(w.Close)

	waitUntil(t, 10*time.Second, func() bool { return cl.coord.Alive(1) })
	if got := cl.coord.Rejoins(); got < 1 {
		t.Errorf("rejoins = %d, want >= 1", got)
	}
	// At least the rejoin bump; the death edge adds another when the
	// sweep observes the outage before the replacement's first ping.
	if got := cl.coord.Epoch(); got < epoch0+1 {
		t.Errorf("epoch = %d, want >= %d (rejoin)", got, epoch0+1)
	}

	// Post-rejoin bursts must stay exact AND reach the rejoined worker:
	// its task counter moving proves the coordinator re-routed to the new
	// address, not just marked it alive.
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; rec.Snapshot().Total.ShardTasks == 0; i++ {
		pos := fmt.Sprintf("%d:3", 200+i)
		want := reference(t, "random", pos, 5)
		got, err := cl.coord.Search(ctx, "random", pos, 5)
		if err != nil {
			t.Fatalf("post-rejoin search %q: %v", pos, err)
		}
		if got.Value != want.Value || got.Best != want.Best {
			t.Fatalf("post-rejoin %q: got (v=%d best=%d), sequential (v=%d best=%d)",
				pos, got.Value, got.Best, want.Value, want.Best)
		}
		if time.Now().After(deadline) {
			t.Fatal("no task ever routed to the rejoined worker")
		}
	}

	// The rejoined worker converges to the coordinator's epoch via hello.
	waitUntil(t, 10*time.Second, func() bool { return w.Epoch() == cl.coord.Epoch() })
}

// TestShardDegradedEmptyRingThenRecover: the single worker dies, searches
// keep answering exactly from the fallback pool with the degraded gauge
// up; a replacement worker brings the tier back to healthy routing.
func TestShardDegradedEmptyRingThenRecover(t *testing.T) {
	pool := engine.NewPool(2, nil, nil)
	t.Cleanup(pool.Close) // registered before the cluster's: closes after the coordinator
	cl := newCluster(t, 1, func(c *Config) { c.Fallback = pool })
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := cl.coord.Search(ctx, "random", "8:3", 5); err != nil {
		t.Fatalf("healthy search: %v", err)
	}
	if cl.coord.DegradedMode() {
		t.Fatal("degraded with a live worker")
	}

	cl.workers[0].Close()
	waitUntil(t, 10*time.Second, func() bool { return cl.coord.DegradedMode() })

	for _, pos := range []string{"21:3", "22:3", "23:3"} {
		want := reference(t, "random", pos, 5)
		got, err := cl.coord.Search(ctx, "random", pos, 5)
		if err != nil {
			t.Fatalf("degraded search %q: %v", pos, err)
		}
		if got.Value != want.Value || got.Best != want.Best {
			t.Fatalf("degraded %q: got (v=%d best=%d), sequential (v=%d best=%d)",
				pos, got.Value, got.Best, want.Value, want.Best)
		}
	}
	if cl.coord.DegradedTasks() == 0 {
		t.Error("no degraded tasks counted on an empty ring")
	}

	// Recovery: a replacement worker rejoins and takes the traffic back.
	tr, err := transport.New(transport.Config{Listen: "127.0.0.1:0", Local: []int{1}, Codec: Codec{}})
	if err != nil {
		t.Fatalf("replacement transport: %v", err)
	}
	tr.SetPeer(0, cl.nets[0].Addr())
	w := NewWorker(WorkerConfig{
		Net: tr, Self: 1, Coordinator: 0, Workers: []int{1},
		PoolWorkers: 2, TableEntries: 1 << 12,
		PingEvery: 25 * time.Millisecond, AdvertiseAddr: tr.Addr(),
	})
	w.Start()
	t.Cleanup(w.Close)
	waitUntil(t, 10*time.Second, func() bool { return !cl.coord.DegradedMode() })

	before := cl.coord.DegradedTasks()
	want := reference(t, "random", "31:3", 5)
	got, err := cl.coord.Search(ctx, "random", "31:3", 5)
	if err != nil {
		t.Fatalf("post-recovery search: %v", err)
	}
	if got.Value != want.Value || got.Best != want.Best {
		t.Fatalf("post-recovery: got (v=%d best=%d), sequential (v=%d best=%d)", got.Value, got.Best, want.Value, want.Best)
	}
	if after := cl.coord.DegradedTasks(); after != before {
		t.Errorf("healthy-ring search still degraded tasks (%d -> %d)", before, after)
	}
}

// waitUntil polls cond until it holds or the deadline fails the test.
func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
