package shard

// The shard-protocol chaos matrix: the whole tier — coordinator, two
// workers, task/result/ping/hello/TT traffic — runs over one shared
// faultnet.Injector, and every fault kind the injector knows must leave
// root values bit-identical to the sequential engine, with membership
// converging back to a full ring (same epoch everywhere) once the fault
// schedule heals. Seeded and repeated, so a regression in the reissue,
// fencing or rejoin machinery fails deterministically.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"gametree/internal/engine"
	"gametree/internal/faultnet"
)

// chaosHub adapts one shared Injector into per-process faultnet.Network
// views, so an in-process cluster's traffic all flows through a single
// seeded fault schedule — the in-memory analogue of the multi-process
// deployment's network.
type chaosHub struct {
	inj   *faultnet.Injector
	start time.Time // fault-clock origin: when the injector started

	mu       sync.Mutex
	handlers map[int]func(faultnet.Packet)
}

func newChaosHub(cfg faultnet.Config) *chaosHub {
	h := &chaosHub{
		inj:      faultnet.NewInjector(cfg),
		handlers: make(map[int]func(faultnet.Packet)),
	}
	// The injector starts (and its fault clock begins) before any view
	// registers; packets to an unregistered processor fall on the floor,
	// matching a process that has not bound its listener yet.
	h.start = time.Now()
	h.inj.Start(h.dispatch)
	return h
}

func (h *chaosHub) dispatch(pkt faultnet.Packet) {
	h.mu.Lock()
	fn := h.handlers[pkt.To]
	h.mu.Unlock()
	if fn != nil {
		fn(pkt)
	}
}

func (h *chaosHub) view(proc int) *hubView { return &hubView{h: h, proc: proc} }

type hubView struct {
	h    *chaosHub
	proc int
}

func (v *hubView) Start(deliver func(faultnet.Packet)) {
	v.h.mu.Lock()
	v.h.handlers[v.proc] = deliver
	v.h.mu.Unlock()
}

func (v *hubView) Send(pkt faultnet.Packet) { v.h.inj.Send(pkt) }

func (v *hubView) StalledUntil(proc int) (time.Time, bool) { return v.h.inj.StalledUntil(proc) }

// Close is a no-op: the hub (and injector) outlive every per-process
// view and are closed once by the test.
func (v *hubView) Close() {}

func (v *hubView) Stats() faultnet.Stats { return v.h.inj.Stats() }

// chaosCase is one position searched repeatedly through the fault window.
type chaosCase struct {
	game, pos string
	depth     int
}

func TestShardChaosMatrix(t *testing.T) {
	const (
		taskTimeout = 100 * time.Millisecond
		deadAfter   = 250 * time.Millisecond
	)
	scenarios := []struct {
		name string
		cfg  faultnet.Config
		// healAt is when the last scheduled fault window closes; 0 for
		// stochastic faults that never stop (drop/dup/...), where healing
		// is not expected and convergence is asserted on injector-alive
		// processors under the ongoing fault load.
		healAt time.Duration
	}{
		{name: "drop", cfg: faultnet.Config{Drop: 0.15}},
		{name: "dup", cfg: faultnet.Config{Dup: 0.3}},
		{name: "reorder", cfg: faultnet.Config{Reorder: 0.5, DelayMax: 20 * time.Millisecond}},
		{name: "delay", cfg: faultnet.Config{Delay: 0.5, DelayMax: 40 * time.Millisecond}},
		{name: "crash", cfg: faultnet.Config{
			Crashes: []faultnet.ProcCrash{{Proc: 2, At: 250 * time.Millisecond}},
		}},
		// Stall longer than DeadAfter: a false death — the worker must be
		// declared dead, then rejoin with the same boot nonce.
		{name: "stall", cfg: faultnet.Config{
			Stalls: []faultnet.ProcStall{{Proc: 1, At: 150 * time.Millisecond, For: 600 * time.Millisecond}},
		}, healAt: 750 * time.Millisecond},
		// Coordinator–worker partition longer than DeadAfter: same false
		// death, but the worker keeps computing and its post-heal answers
		// for superseded issues are exactly what the fence exists for.
		{name: "partition", cfg: faultnet.Config{
			Partitions: []faultnet.LinkPartition{{A: 0, B: 1, At: 150 * time.Millisecond, For: 500 * time.Millisecond}},
		}, healAt: 650 * time.Millisecond},
	}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	cases := []chaosCase{
		{"random", "11:3", 4},
		{"ttt", "X...O....", 4},
		{"random", "7:2", 5},
		{"connect4", "33", 3},
	}
	wants := make([]engine.Result, len(cases))
	for i, c := range cases {
		wants[i] = reference(t, c.game, c.pos, c.depth)
	}

	for _, sc := range scenarios {
		for _, seed := range seeds {
			sc, seed := sc, seed
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				t.Parallel()
				cfg := sc.cfg
				cfg.Seed = seed
				hub := newChaosHub(cfg)

				procs := []int{1, 2}
				var workers []*Worker
				for _, p := range procs {
					w := NewWorker(WorkerConfig{
						Net:          hub.view(p),
						Self:         p,
						Coordinator:  0,
						Workers:      procs,
						PoolWorkers:  2,
						TableEntries: 1 << 12,
						PingEvery:    25 * time.Millisecond,
					})
					w.Start()
					workers = append(workers, w)
				}
				pool := engine.NewPool(2, nil, nil)
				coord := NewCoordinator(Config{
					Net:         hub.view(0),
					Self:        0,
					Workers:     procs,
					ExpandDepth: 1,
					TaskTimeout: taskTimeout,
					DeadAfter:   deadAfter,
					HelloEvery:  50 * time.Millisecond,
					RetryBudget: 50, // ride out the whole fault window on retries
					Fallback:    pool,
				})
				coord.Start()
				t.Cleanup(func() {
					coord.Close()
					for _, w := range workers {
						w.Close()
					}
					pool.Close()
					hub.inj.Close()
				})

				ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
				defer cancel()

				// Phase 1: search straight through the fault window. Every
				// answer must be bit-identical to the sequential engine no
				// matter what the injector does to the protocol.
				end := time.Now().Add(1200 * time.Millisecond)
				for i := 0; time.Now().Before(end); i++ {
					c := cases[i%len(cases)]
					want := wants[i%len(cases)]
					got, err := coord.Search(ctx, c.game, c.pos, c.depth)
					if err != nil {
						t.Fatalf("search %s %q under chaos: %v", c.game, c.pos, err)
					}
					if got.Value != want.Value || got.Best != want.Best {
						t.Fatalf("%s %q d=%d under chaos: got (v=%d best=%d), sequential (v=%d best=%d)",
							c.game, c.pos, c.depth, got.Value, got.Best, want.Value, want.Best)
					}
				}

				// Phase 2: wait out any scheduled fault windows, then require
				// membership to converge — every injector-alive worker back in
				// the ring and caught up to the coordinator's epoch.
				if sc.healAt > 0 {
					time.Sleep(time.Until(hubStart(hub).Add(sc.healAt)))
				}
				converged := func() bool {
					for i, p := range procs {
						if !hub.inj.Alive(p) {
							continue // injector-crashed: stays out by design
						}
						if !coord.Alive(p) || workers[i].Epoch() != coord.Epoch() {
							return false
						}
					}
					return true
				}
				deadline := time.Now().Add(30 * time.Second)
				for !converged() {
					if time.Now().After(deadline) {
						for i, p := range procs {
							t.Logf("proc %d: injAlive=%v coordAlive=%v workerEpoch=%d coordEpoch=%d",
								p, hub.inj.Alive(p), coord.Alive(p), workers[i].Epoch(), coord.Epoch())
						}
						t.Fatal("membership never converged after the fault window")
					}
					time.Sleep(5 * time.Millisecond)
				}

				// Phase 3: a post-heal burst stays exact.
				for i, c := range cases {
					got, err := coord.Search(ctx, c.game, c.pos, c.depth)
					if err != nil {
						t.Fatalf("post-heal search %s %q: %v", c.game, c.pos, err)
					}
					if got.Value != wants[i].Value || got.Best != wants[i].Best {
						t.Fatalf("post-heal %s %q: got (v=%d best=%d), sequential (v=%d best=%d)",
							c.game, c.pos, got.Value, got.Best, wants[i].Value, wants[i].Best)
					}
				}
			})
		}
	}
}

// hubStart recovers the injector's fault-clock origin: scheduled windows
// are relative to Injector.Start, which newChaosHub calls at build time.
func hubStart(h *chaosHub) time.Time { return h.start }
