package shard

import (
	"context"
	"sync"
	"testing"
	"time"

	"gametree/internal/faultnet"
)

// tapView records every packet a process sends before handing it to its
// network.
type tapView struct {
	faultnet.Network
	mu   *sync.Mutex
	sent *[]faultnet.Packet
}

func (v tapView) Send(pkt faultnet.Packet) {
	v.mu.Lock()
	*v.sent = append(*v.sent, pkt)
	v.mu.Unlock()
	v.Network.Send(pkt)
}

// TestWorkersSpeakOnlyToCoordinator: a two-worker ring searching tabled
// Connect-4 roots deep enough that its workers search nodes at remaining
// depth 8 and more sends no packet from one worker to the other — the
// workers share nothing but the values they return to the coordinator.
func TestWorkersSpeakOnlyToCoordinator(t *testing.T) {
	hub := newChaosHub(faultnet.Config{Seed: 1}) // no faults: a plain in-memory network
	var mu sync.Mutex
	var sent []faultnet.Packet
	procs := []int{1, 2}
	var workers []*Worker
	for _, p := range procs {
		w := NewWorker(WorkerConfig{
			Net:          tapView{hub.view(p), &mu, &sent},
			Self:         p,
			Coordinator:  0,
			Workers:      procs,
			PoolWorkers:  1,
			TableEntries: 1 << 16,
			PingEvery:    25 * time.Millisecond,
		})
		w.Start()
		workers = append(workers, w)
	}
	coord := NewCoordinator(Config{
		Net:         tapView{hub.view(0), &mu, &sent},
		Self:        0,
		Workers:     procs,
		ExpandDepth: 1, // depth-10 roots ship depth-9 tasks
		HelloEvery:  50 * time.Millisecond,
	})
	coord.Start()
	t.Cleanup(func() {
		coord.Close()
		for _, w := range workers {
			w.Close()
		}
		hub.inj.Close()
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, pos := range []string{"33", "3232", "0615"} {
		if _, err := coord.Search(ctx, "connect4", pos, 10); err != nil {
			t.Fatalf("connect4 %q: %v", pos, err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	toCoord := map[int]int{}
	for _, pkt := range sent {
		if pkt.From != 0 && pkt.To != 0 {
			t.Fatalf("worker %d sent worker %d a %q frame", pkt.From, pkt.To, pkt.Payload.(*Envelope).Kind)
		}
		if pkt.To == 0 && pkt.Payload.(*Envelope).Kind == KindResult {
			toCoord[pkt.From]++
		}
	}
	if toCoord[1] == 0 || toCoord[2] == 0 {
		t.Fatalf("results to the coordinator by worker: %v, want both workers", toCoord)
	}
}
