package shard

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gametree/internal/engine"
	"gametree/internal/faultnet"
	"gametree/internal/reqtrace"
	"gametree/internal/telemetry"
)

// WorkerConfig parameterizes one worker process of the shard tier.
type WorkerConfig struct {
	// Net carries the shard protocol; the worker calls Start and owns
	// Close.
	Net faultnet.Network
	// Self is this worker's processor id.
	Self int
	// Coordinator is the coordinator's processor id (conventionally 0).
	Coordinator int
	// Workers lists every worker id; the ring must match the
	// coordinator's so both sides agree on TT ownership.
	Workers []int
	// PoolWorkers sizes the resident search pool (0 = GOMAXPROCS).
	PoolWorkers int
	// TableEntries sizes the local transposition table (0 disables it,
	// which also disables the remote tier). Its memory is taken on the
	// first store, local or remote.
	TableEntries int
	// PingEvery paces liveness pings to the coordinator (default 500ms).
	PingEvery time.Duration
	// AdvertiseAddr is this worker's transport address, carried in pings
	// so a coordinator can re-route to a worker restarted on a fresh port
	// without a portfile round trip. Optional.
	AdvertiseAddr string
	// Telemetry records pool counters on shards 0..PoolWorkers-1 and the
	// worker's remote-TT counters on shard PoolWorkers. Optional.
	Telemetry *telemetry.Recorder
	// Tracer records request-scoped spans (queue/compute/done-cache/
	// remote-probe) for envelopes carrying a trace ID. Optional.
	Tracer *reqtrace.Tracer
}

const (
	// remoteMinDepth gates the two-level table: probes and stores with
	// remaining depth below it stay local. Every interior node above the
	// engine's 2-ply split horizon probes and stores, so the gate is what
	// keeps remote traffic rare: an envelope costs ~10µs of codec and
	// socket work on each side, which is under 1% of a subtree only once
	// that subtree runs to milliseconds — depth 8 on the cheapest game
	// served (the hash-mix random tree, ~70ns/node).
	remoteMinDepth = 8
	// remoteWindow bounds in-flight remote probes; beyond it probes are
	// skipped, never queued.
	remoteWindow = 256
	// taskQueueLen bounds the inbound task queue; overflow tasks are
	// dropped for the coordinator to reissue.
	taskQueueLen = 128
	// doneCacheLen bounds the result-dedup cache, in results.
	doneCacheLen = 1024
)

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.PingEvery <= 0 {
		c.PingEvery = 500 * time.Millisecond
	}
	return c
}

// Worker runs a resident search pool behind the shard protocol: tasks
// arrive from the coordinator, results go back with the same ID
// (re-answered from a bounded cache when a reissued duplicate arrives),
// and the local transposition table participates in the two-level tier —
// serving ttprobe/ttstore for hashes it owns, forwarding deep local
// traffic to the owning shard through a bounded in-flight window that
// never blocks the search hot path.
type Worker struct {
	cfg   WorkerConfig
	ring  *Ring
	table *engine.Table
	pool  *engine.Pool
	tm    *telemetry.Shard

	tasks chan queuedTask

	// boot is this process's random boot nonce, stamped on every ping so
	// the coordinator can tell a restarted process from a surviving one
	// even when the restart lands inside the liveness window.
	boot uint64
	// epoch tracks the highest coordinator membership epoch seen in a
	// hello — the worker never authors epochs, only echoes them.
	epoch atomic.Uint64

	// curTrace is the trace ID of the task the (single) runLoop is
	// executing, read by remote-TT probes issued from inside the search.
	// Always holds a string; empty when idle or the task is unsampled.
	curTrace atomic.Value

	mu sync.Mutex
	// inflight maps a queued-or-running task ID to the epoch of the
	// latest issuance seen for it. A reissued duplicate updates the epoch
	// even though the task is not re-run, so the eventual result is
	// stamped with an epoch the coordinator will accept — stamping the
	// original issue epoch instead would fence every result whose task
	// was reissued across a membership change, livelocking the retry.
	inflight    map[uint64]uint64
	doneCache   map[uint64]*Envelope
	doneOrder   []uint64
	outstanding map[uint64]probeSent // remote probes in flight, by hash

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	closeMu sync.Mutex
	isClose bool
}

// queuedTask is one inbound task plus its arrival stamp: recvNs is the
// wall clock at enqueue for traced tasks (0 otherwise), so the queue
// span costs nothing on the unsampled path.
type queuedTask struct {
	env    *Envelope
	recvNs int64
}

// probeSent is one in-flight remote-TT probe's send-side state: the
// monotonic stamp feeds the RPC histogram, the wall stamp and trace (set
// only for probes issued under a traced task) feed the remote-probe span.
type probeSent struct {
	at     time.Time
	wallNs int64
	trace  string
}

// randBoot draws a random nonzero boot nonce. Zero is reserved for "no
// nonce" on the wire, so the rare zero draw (and the no-entropy fallback)
// maps to a time-derived value instead.
func randBoot() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		if n := binary.BigEndian.Uint64(b[:]); n != 0 {
			return n
		}
	}
	return uint64(time.Now().UnixNano()) | 1
}

// NewWorker builds a worker over an un-started network. Call Start.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg = cfg.withDefaults()
	var table *engine.Table
	if cfg.TableEntries > 0 {
		table = engine.NewTable(cfg.TableEntries)
	}
	pool := engine.NewPool(cfg.PoolWorkers, table, cfg.Telemetry)
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{
		cfg:         cfg,
		ring:        NewRing(cfg.Workers),
		table:       table,
		pool:        pool,
		tm:          cfg.Telemetry.Shard(pool.Workers()),
		tasks:       make(chan queuedTask, taskQueueLen),
		boot:        randBoot(),
		inflight:    make(map[uint64]uint64),
		doneCache:   make(map[uint64]*Envelope),
		outstanding: make(map[uint64]probeSent),
		ctx:         ctx,
		cancel:      cancel,
	}
	w.curTrace.Store("")
	if table != nil {
		table.SetRemote(remoteClient{w}, remoteMinDepth)
	}
	return w
}

// Start installs the delivery callback, announces itself with a ping,
// and spawns the task runner and ping loop.
func (w *Worker) Start() {
	w.cfg.Net.Start(w.deliver)
	w.sendPing()
	w.wg.Add(2)
	go w.runLoop()
	go w.pingLoop()
}

// Close cancels the in-flight search, stops the loops and closes the
// network. Idempotent.
func (w *Worker) Close() {
	w.closeMu.Lock()
	if w.isClose {
		w.closeMu.Unlock()
		return
	}
	w.isClose = true
	w.closeMu.Unlock()
	w.cancel()
	if w.table != nil {
		w.table.SetRemote(nil, 0)
	}
	w.pool.Close()
	w.wg.Wait()
	w.cfg.Net.Close()
}

// deliver runs on transport reader goroutines: every branch is bounded
// work — map updates, a lock-free table probe, a non-blocking Send —
// never a search and never a blocking queue put.
func (w *Worker) deliver(pkt faultnet.Packet) {
	env, ok := pkt.Payload.(*Envelope)
	if !ok {
		return
	}
	switch env.Kind {
	case KindTask:
		w.acceptTask(env)
	case KindHello:
		w.applyHello(env)
	case KindTTProbe:
		if w.table == nil {
			return
		}
		if v, d, f, b, hit := w.table.Probe(env.Hash); hit {
			w.cfg.Net.Send(faultnet.Packet{From: w.cfg.Self, To: pkt.From, Payload: &Envelope{
				Kind: KindTTReply, Hash: env.Hash,
				Value: v, Depth: d, Flag: f, Best: b,
				SentNs: env.SentNs,
			}})
		}
	case KindTTReply:
		w.mu.Lock()
		sent, waiting := w.outstanding[env.Hash]
		delete(w.outstanding, env.Hash)
		w.mu.Unlock()
		if !waiting {
			return // late or duplicate reply; window already recycled
		}
		// Plain Store: installing a reply must not re-forward it.
		w.table.Store(env.Hash, env.Value, env.Depth, env.Flag, env.Best)
		if w.tm != nil {
			w.tm.RemoteHits.Add(1)
			w.tm.Hist[telemetry.HistShardRPCNs].Observe(time.Since(sent.at).Nanoseconds())
		}
		if sent.trace != "" {
			w.cfg.Tracer.Record(reqtrace.Span{
				Trace: sent.trace, Stage: reqtrace.StageRemoteProbe,
				StartNs: sent.wallNs, DurNs: time.Now().UnixNano() - sent.wallNs,
				Note: fmt.Sprintf("hash=%x", env.Hash),
			})
		}
	case KindTTStore:
		if w.table != nil {
			w.table.Store(env.Hash, env.Value, env.Depth, env.Flag, env.Best)
		}
	}
}

// acceptTask enqueues a task, re-answers completed duplicates from the
// cache, ignores in-flight duplicates, and drops on queue overflow (the
// coordinator's reissue covers the loss).
func (w *Worker) acceptTask(env *Envelope) {
	w.mu.Lock()
	if res := w.doneCache[env.ID]; res != nil {
		// Replay under the incoming issuance's epoch, on a copy — the
		// cached envelope is shared with other replays, and restamping it
		// in place would race. Replaying the original epoch would be
		// fenced forever once the coordinator reissued across a
		// membership change.
		cp := *res
		cp.Epoch = env.Epoch
		w.mu.Unlock()
		if env.Trace != "" {
			// Stamp the dedup: a reissued duplicate answered from the
			// result cache, not recomputed.
			w.cfg.Tracer.Record(reqtrace.Span{
				Trace: env.Trace, Stage: reqtrace.StageDoneCache,
				StartNs: time.Now().UnixNano(), Task: env.ID, Note: "replayed",
			})
		}
		w.cfg.Net.Send(faultnet.Packet{From: w.cfg.Self, To: w.cfg.Coordinator, Payload: &cp})
		return
	}
	if _, running := w.inflight[env.ID]; running {
		// Already queued or computing: adopt the newer issuance's epoch so
		// the eventual result passes the coordinator's fence.
		w.inflight[env.ID] = env.Epoch
		w.mu.Unlock()
		return
	}
	w.inflight[env.ID] = env.Epoch
	w.mu.Unlock()
	qt := queuedTask{env: env}
	if env.Trace != "" {
		qt.recvNs = time.Now().UnixNano()
	}
	select {
	case w.tasks <- qt:
	default:
		w.mu.Lock()
		delete(w.inflight, env.ID)
		w.mu.Unlock()
	}
}

func (w *Worker) applyHello(env *Envelope) {
	// Adopt the hello's membership epoch, monotonically — hellos can be
	// reordered in flight, and the epoch only ever grows at its author.
	if env.Epoch != 0 {
		for {
			cur := w.epoch.Load()
			if env.Epoch <= cur || w.epoch.CompareAndSwap(cur, env.Epoch) {
				break
			}
		}
	}
	// Pong the hello: echoing its SentNs alongside our own send stamp
	// gives the coordinator an NTP-style RTT and clock-offset sample on
	// every hello round. The pong is an ordinary ping, so it also
	// freshens our liveness for free.
	if env.SentNs != 0 {
		w.cfg.Net.Send(faultnet.Packet{From: w.cfg.Self, To: w.cfg.Coordinator, Payload: &Envelope{
			Kind: KindPing, SentNs: time.Now().UnixNano(), EchoNs: env.SentNs,
			Boot: w.boot, Addr: w.cfg.AdvertiseAddr,
		}})
	}
	ps, ok := w.cfg.Net.(PeerSetter)
	if !ok {
		return
	}
	for k, addr := range env.Peers {
		proc, err := strconv.Atoi(k)
		if err != nil || proc == w.cfg.Self {
			continue
		}
		ps.SetPeer(proc, addr)
	}
}

func (w *Worker) runLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.ctx.Done():
			return
		case qt := <-w.tasks:
			w.runTask(qt)
		}
	}
}

func (w *Worker) runTask(qt queuedTask) {
	env := qt.env
	traced := env.Trace != ""
	var startWall int64
	if traced {
		startWall = time.Now().UnixNano()
		w.cfg.Tracer.Record(reqtrace.Span{
			Trace: env.Trace, Stage: reqtrace.StageQueue,
			StartNs: qt.recvNs, DurNs: startWall - qt.recvNs, Task: env.ID,
		})
		w.curTrace.Store(env.Trace)
		defer func() {
			w.curTrace.Store("")
			w.cfg.Tracer.Record(reqtrace.Span{
				Trace: env.Trace, Stage: reqtrace.StageCompute,
				StartNs: startWall, DurNs: time.Now().UnixNano() - startWall,
				Task: env.ID,
			})
		}()
	}
	res := &Envelope{Kind: KindResult, ID: env.ID}
	if r, err := evaluate(w.ctx, w.pool, env); err != nil {
		if w.ctx.Err() != nil {
			return // closing: no result, coordinator reissues elsewhere
		}
		res.Err = err.Error()
	} else {
		res.Value, res.Best, res.Nodes = r.Value, r.Best, r.Nodes
	}
	if w.tm != nil {
		w.tm.ShardTasks.Add(1)
	}
	w.mu.Lock()
	// Stamp the result with the latest issuance epoch seen for this task
	// (acceptTask keeps it fresh across reissues), not the epoch the task
	// was first queued under.
	res.Epoch = w.inflight[env.ID]
	delete(w.inflight, env.ID)
	w.doneCache[env.ID] = res
	w.doneOrder = append(w.doneOrder, env.ID)
	for len(w.doneOrder) > doneCacheLen {
		delete(w.doneCache, w.doneOrder[0])
		w.doneOrder = w.doneOrder[1:]
	}
	w.mu.Unlock()
	w.cfg.Net.Send(faultnet.Packet{From: w.cfg.Self, To: w.cfg.Coordinator, Payload: res})
}

func (w *Worker) pingLoop() {
	defer w.wg.Done()
	t := time.NewTicker(w.cfg.PingEvery)
	defer t.Stop()
	for {
		select {
		case <-w.ctx.Done():
			return
		case <-t.C:
			// A stalled processor must fall silent, not just lose frames:
			// the chaos stall models a GC-frozen or wedged process, and a
			// liveness ping escaping the freeze would defeat the
			// coordinator's false-death detection the fault exists to test.
			if _, stalled := w.cfg.Net.StalledUntil(w.cfg.Self); stalled {
				continue
			}
			w.sendPing()
		}
	}
}

func (w *Worker) sendPing() {
	w.cfg.Net.Send(faultnet.Packet{From: w.cfg.Self, To: w.cfg.Coordinator, Payload: &Envelope{
		Kind: KindPing, SentNs: time.Now().UnixNano(),
		Boot: w.boot, Addr: w.cfg.AdvertiseAddr,
	}})
}

// Epoch reports the highest coordinator membership epoch this worker has
// seen (0 until the first epoch-stamped hello arrives).
func (w *Worker) Epoch() uint64 { return w.epoch.Load() }

// PromSection publishes this worker's view of the ring (membership plus
// its own id) for telemetry.Recorder.AddPromSection, so every role's
// /metrics answers "who is in the ring" without asking the coordinator,
// and the bytes its table holds (0 until the first store).
func (w *Worker) PromSection() func(io.Writer) error {
	return func(out io.Writer) error {
		procs := append([]int(nil), w.cfg.Workers...)
		sort.Ints(procs)
		if err := writeRingMembership(out, procs); err != nil {
			return err
		}
		if err := telemetry.PromGauge(out, "gametree_shard_epoch",
			"Latest coordinator membership epoch seen by this process.", int64(w.epoch.Load())); err != nil {
			return err
		}
		if err := telemetry.PromGauge(out, "gametree_shard_self_proc",
			"This process's shard processor id.", int64(w.cfg.Self)); err != nil {
			return err
		}
		return telemetry.PromMemory(out, telemetry.MemoryOwner{Owner: "table", Bytes: w.table.Bytes()})
	}
}

// remoteWindowTTL ages out probe-window slots whose replies never came
// (owner down, frame dropped), so losses cannot wedge the window shut.
const remoteWindowTTL = time.Second

// remoteClient is the engine.RemoteTT half of the two-level table: it
// forwards deep probes and stores to the hash's owning shard. Both
// methods run on the search hot path and are strictly non-blocking — a
// brief mutex for the window map, then a non-blocking transport send.
type remoteClient struct{ w *Worker }

func (r remoteClient) Probe(hash uint64, depth int) {
	w := r.w
	owner := w.ring.Owner(hash)
	if owner == w.cfg.Self {
		return
	}
	now := time.Now()
	w.mu.Lock()
	if _, dup := w.outstanding[hash]; dup {
		w.mu.Unlock()
		return
	}
	if len(w.outstanding) >= remoteWindow {
		// Window full: purge aged slots, and if still full, skip.
		for h, sent := range w.outstanding {
			if now.Sub(sent.at) > remoteWindowTTL {
				delete(w.outstanding, h)
			}
		}
		if len(w.outstanding) >= remoteWindow {
			w.mu.Unlock()
			if w.tm != nil {
				w.tm.RemoteSkips.Add(1)
			}
			return
		}
	}
	sent := probeSent{at: now}
	if trace, _ := w.curTrace.Load().(string); trace != "" {
		sent.trace = trace
		sent.wallNs = now.UnixNano()
	}
	w.outstanding[hash] = sent
	w.mu.Unlock()
	if w.tm != nil {
		w.tm.RemoteProbes.Add(1)
	}
	w.cfg.Net.Send(faultnet.Packet{From: w.cfg.Self, To: owner, Payload: &Envelope{
		Kind: KindTTProbe, Hash: hash, Depth: depth, SentNs: now.UnixNano(),
	}})
}

func (r remoteClient) Store(hash uint64, value int32, depth int, flag uint64, best int) {
	w := r.w
	owner := w.ring.Owner(hash)
	if owner == w.cfg.Self {
		return
	}
	if w.tm != nil {
		w.tm.RemoteStores.Add(1)
	}
	w.cfg.Net.Send(faultnet.Packet{From: w.cfg.Self, To: owner, Payload: &Envelope{
		Kind: KindTTStore, Hash: hash, Value: value, Depth: depth, Flag: flag, Best: best,
	}})
}
