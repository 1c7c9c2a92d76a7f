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
	"sort"
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
		Workers:     []int{1, 2}, // two: a lone search fans out only while a worker would idle
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

	// random 3:2 has two children. The cascade dispatches the eldest
	// alone; its brother waits for the eldest's value.
	waitUntil(t, 10*time.Second, func() bool { return state(coord).pending == 1 })
	eldest := pendingIDs(coord)[0]

	// Two pings from worker 1 with different boot nonces: the second is a
	// restart signature, bumping the membership epoch to 2.
	fn.inject(faultnet.Packet{From: 1, To: 0, Payload: &Envelope{Kind: KindPing, Boot: 111}})
	fn.inject(faultnet.Packet{From: 1, To: 0, Payload: &Envelope{Kind: KindPing, Boot: 222}})
	if got := coord.Epoch(); got != 2 {
		t.Fatalf("epoch after forged restart = %d, want 2", got)
	}
	if got := state(coord).rejoins; got != 1 {
		t.Fatalf("rejoins = %d, want 1", got)
	}
	// A ping from a non-member must not move the epoch.
	fn.inject(faultnet.Packet{From: 99, To: 0, Payload: &Envelope{Kind: KindPing, Boot: 333}})
	if got := coord.Epoch(); got != 2 {
		t.Fatalf("epoch moved to %d on a foreign ping", got)
	}

	// Wait for the reissue loop to restamp the eldest at epoch 2.
	waitUntil(t, 10*time.Second, func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		p := coord.proto.pending[eldest]
		return p != nil && p.issueEpoch == 2
	})

	// The ghost answers with the superseded epoch: the result must be
	// fenced — discarded with the task still pending, never folded.
	fn.inject(faultnet.Packet{From: 1, To: 0, Payload: &Envelope{
		Kind: KindResult, ID: eldest, Epoch: 1, Value: 42, Best: 0,
	}})
	if got := coord.FencedResults(); got != 1 {
		t.Fatalf("fenced = %d, want 1", got)
	}
	if got := state(coord).pending; got != 1 {
		t.Fatalf("pending = %d after a fenced result, want 1 (fenced result settled a task)", got)
	}

	// The fresh-epoch answer settles the eldest and releases its brother,
	// on the window the eldest's value 5 left: (−∞, 5).
	fn.inject(faultnet.Packet{From: 1, To: 0, Payload: &Envelope{Kind: KindResult, ID: eldest, Epoch: 2, Value: 5, Best: 0}})
	waitUntil(t, 10*time.Second, func() bool {
		ids := pendingIDs(coord)
		return len(ids) == 1 && ids[0] != eldest
	})
	younger := pendingIDs(coord)[0]
	coord.mu.Lock()
	env := coord.proto.pending[younger].env
	coord.mu.Unlock()
	if env.Alpha != nil || env.Beta == nil || *env.Beta != 5 {
		t.Fatalf("younger brother's window (alpha=%v beta=%v), want (nil, 5)", env.Alpha, env.Beta)
	}

	// The younger brother was issued at epoch 2: a ghost answer from
	// epoch 1 is fenced too.
	fn.inject(faultnet.Packet{From: 1, To: 0, Payload: &Envelope{
		Kind: KindResult, ID: younger, Epoch: 1, Value: 42, Best: 0,
	}})
	if got := coord.FencedResults(); got != 2 {
		t.Fatalf("fenced = %d, want 2", got)
	}
	if got := state(coord).pending; got != 1 {
		t.Fatalf("pending = %d after a fenced result, want 1 (fenced result settled a task)", got)
	}

	// The fresh-epoch answer settles the search; the folded value must
	// come from the fresh answers, not the fenced 42s.
	fn.inject(faultnet.Packet{From: 1, To: 0, Payload: &Envelope{Kind: KindResult, ID: younger, Epoch: 2, Value: 7, Best: 0}})
	out := <-done
	if out.err != nil {
		t.Fatalf("search: %v", out.err)
	}
	// Negamax fold over child values (5, 7): max(-5, -7) = -5, move 0.
	if out.res.Value != -5 || out.res.Best != 0 {
		t.Fatalf("folded (v=%d best=%d), want (v=-5 best=0) — a fenced value leaked into the fold", out.res.Value, out.res.Best)
	}
}

// pendingIDs lists the coordinator's outstanding task IDs in dispatch
// order.
func pendingIDs(c *Coordinator) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]uint64, 0, len(c.proto.pending))
	for id := range c.proto.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
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
	if state(coord).degradedTasks == 0 {
		t.Error("no tasks recorded as degraded")
	}
	if !state(coord).degradedMode {
		t.Error("ring fully dead but DegradedMode reports false")
	}
	if state(coord).pending != 0 {
		t.Errorf("%d tasks left pending", state(coord).pending)
	}

	// With the ring known-dead up front, dispatch skips it entirely.
	before := state(coord).quarantined
	if _, err := coord.Search(ctx, "random", "6:3", 4); err != nil {
		t.Fatalf("second degraded search: %v", err)
	}
	if state(coord).quarantined != before {
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
	if state(coord).quarantined == 0 {
		t.Error("quarantine not counted")
	}
	if state(coord).pending != 0 {
		t.Errorf("%d tasks left pending after quarantine", state(coord).pending)
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
	if got := state(cl.coord).rejoins; got < 1 {
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
	if state(cl.coord).degradedMode {
		t.Fatal("degraded with a live worker")
	}

	cl.workers[0].Close()
	waitUntil(t, 10*time.Second, func() bool { return state(cl.coord).degradedMode })

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
	if state(cl.coord).degradedTasks == 0 {
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
	waitUntil(t, 10*time.Second, func() bool { return !state(cl.coord).degradedMode })

	before := state(cl.coord).degradedTasks
	want := reference(t, "random", "31:3", 5)
	got, err := cl.coord.Search(ctx, "random", "31:3", 5)
	if err != nil {
		t.Fatalf("post-recovery search: %v", err)
	}
	if got.Value != want.Value || got.Best != want.Best {
		t.Fatalf("post-recovery: got (v=%d best=%d), sequential (v=%d best=%d)", got.Value, got.Best, want.Value, want.Best)
	}
	if after := state(cl.coord).degradedTasks; after != before {
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

// restartNet is a fakeNet that also reports fresh processes on known
// addresses, as transport.TCP does from its connection preamble, so a
// test can fire the coordinator's restart handler by hand.
type restartNet struct {
	fakeNet
	restarted func(addr string, oldID, newID uint64)
}

func (r *restartNet) SetRestartHandler(fn func(addr string, oldID, newID uint64)) {
	r.restarted = fn
}

// TestPeerRestartFastPath: a restart reported on a worker's address
// expires its liveness at once — long before DeadAfter — so the next
// sweep sees the death edge and bumps the epoch; the fresh process's
// first ping, with a new boot nonce, is a rejoin under another bump. A
// restart on an address no worker uses changes nothing.
func TestPeerRestartFastPath(t *testing.T) {
	rn := &restartNet{}
	coord := NewCoordinator(Config{
		Net:         rn,
		Self:        0,
		Workers:     []int{1, 2},
		TaskTimeout: 40 * time.Millisecond, // liveness sweep every 10ms
		DeadAfter:   time.Minute,
		HelloEvery:  time.Hour,
		PeerAddrs:   map[int]string{1: "10.0.0.1:7001", 2: "10.0.0.2:7002"},
	})
	coord.Start()
	defer coord.Close()
	if rn.restarted == nil {
		t.Fatal("coordinator installed no restart handler")
	}
	rn.inject(faultnet.Packet{From: 1, To: 0, Payload: &Envelope{Kind: KindPing, Boot: 111}})
	epoch0 := coord.Epoch()

	rn.restarted("10.0.0.9:7009", 1, 2)
	time.Sleep(50 * time.Millisecond) // five sweeps
	if !coord.Alive(1) || !coord.Alive(2) || coord.Epoch() != epoch0 || state(coord).rejoins != 0 {
		t.Fatalf("restart on an unknown address: alive=(%v,%v) epoch %d→%d rejoins %d; want nothing changed",
			coord.Alive(1), coord.Alive(2), epoch0, coord.Epoch(), state(coord).rejoins)
	}

	rn.restarted("10.0.0.1:7001", 1, 2)
	if coord.Alive(1) {
		t.Fatal("worker 1 still alive right after its address reported a restart")
	}
	if !coord.Alive(2) {
		t.Fatal("worker 2 expired by a restart on worker 1's address")
	}
	waitUntil(t, 2*time.Second, func() bool { return coord.Epoch() > epoch0 })
	if got := coord.Epoch(); got != epoch0+1 {
		t.Fatalf("epoch after the death edge = %d, want %d", got, epoch0+1)
	}

	rn.inject(faultnet.Packet{From: 1, To: 0, Payload: &Envelope{Kind: KindPing, Boot: 222}})
	if !coord.Alive(1) {
		t.Fatal("worker 1 not alive after the fresh process pinged")
	}
	if got := state(coord).rejoins; got != 1 {
		t.Fatalf("rejoins = %d, want 1", got)
	}
	if got := coord.Epoch(); got != epoch0+2 {
		t.Fatalf("epoch after the rejoin = %d, want %d", got, epoch0+2)
	}
}
