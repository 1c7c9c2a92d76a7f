package shard

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
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
	// Workers lists every worker id, as the coordinator's Config does;
	// the worker publishes it as its view of ring membership.
	Workers []int
	// PoolWorkers sizes the resident search pool (0 = GOMAXPROCS).
	PoolWorkers int
	// TableEntries sizes the worker's transposition table (0 disables
	// it). Its memory is taken on the first store.
	TableEntries int
	// PingEvery paces liveness pings to the coordinator (default 500ms).
	PingEvery time.Duration
	// AdvertiseAddr is this worker's transport address, carried in pings
	// so a coordinator can re-route to a worker restarted on a fresh port
	// without a portfile round trip. Optional.
	AdvertiseAddr string
	// Telemetry records pool counters on shards 0..PoolWorkers-1 and the
	// worker's task count on shard PoolWorkers. Optional.
	Telemetry *telemetry.Recorder
	// Tracer records request-scoped spans (queue/compute/done-cache) for
	// envelopes carrying a trace ID. Optional.
	Tracer *reqtrace.Tracer
}

const (
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
// (re-answered from a bounded cache when a reissued duplicate arrives).
// The worker's transposition table is its own: a worker sends frames to
// the coordinator only.
type Worker struct {
	cfg   WorkerConfig
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

	mu sync.Mutex
	// inflight maps a queued-or-running task ID to the epoch of the
	// latest issuance seen for it. A reissued duplicate updates the epoch
	// even though the task is not re-run, so the eventual result is
	// stamped with an epoch the coordinator will accept — stamping the
	// original issue epoch instead would fence every result whose task
	// was reissued across a membership change, livelocking the retry.
	inflight  map[uint64]uint64
	doneCache map[uint64]*Envelope
	doneOrder []uint64

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
	return &Worker{
		cfg:       cfg,
		table:     table,
		pool:      pool,
		tm:        cfg.Telemetry.Shard(pool.Workers()),
		tasks:     make(chan queuedTask, taskQueueLen),
		boot:      randBoot(),
		inflight:  make(map[uint64]uint64),
		doneCache: make(map[uint64]*Envelope),
		ctx:       ctx,
		cancel:    cancel,
	}
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
	w.pool.Close()
	w.wg.Wait()
	w.cfg.Net.Close()
}

// deliver runs on transport reader goroutines: every branch is bounded
// work — map updates and a non-blocking Send — never a search and never
// a blocking queue put.
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
	// Adopt the hello's address table: a worker started without peer
	// addresses learns from it where to send its results and pings.
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
		defer func() {
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
