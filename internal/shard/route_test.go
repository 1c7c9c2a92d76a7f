package shard

// Bounded-load routing, tested on routeLocked itself: no network, no
// worker, only a coordinator whose liveness the test sets by hand and a
// pending map it fills the way dispatch does.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// routeCoord returns an un-started coordinator over workers, with every
// worker live except dead.
func routeCoord(workers []int, dead ...int) *Coordinator {
	c := NewCoordinator(Config{Net: &fakeNet{}, Workers: workers})
	now := time.Now()
	for _, w := range workers {
		c.lastPing[w] = now
	}
	for _, w := range dead {
		delete(c.lastPing, w)
	}
	return c
}

// keysOwnedBy returns n distinct routing keys whose hash owner is proc.
func keysOwnedBy(r *Ring, proc, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("random|%d", i); r.OwnerString(k) == proc {
			keys = append(keys, k)
		}
	}
	return keys
}

// place routes key as dispatch does — one load map per wave, the task
// entered into pending once routed — and checks that the map still
// equals a recount of pending.
func place(t *testing.T, c *Coordinator, load map[int]int, key string, avoid int) int {
	t.Helper()
	to, ok := c.routeLocked(key, load, avoid, time.Now())
	if !ok {
		t.Fatalf("%s: no live worker", key)
	}
	id := c.nextID.Add(1)
	c.pending[id] = &pendingTask{env: &Envelope{ID: id}, key: key, to: to}
	if got := c.loadsLocked(); fmt.Sprint(got) != fmt.Sprint(load) {
		t.Fatalf("load map %v drifted from pending %v", load, got)
	}
	return to
}

// TestRouteSpreadsOneOwnersWave: four brothers that all hash to worker 1
// land two on each of two live workers, not four on one.
func TestRouteSpreadsOneOwnersWave(t *testing.T) {
	c := routeCoord([]int{1, 2})
	load := c.loadsLocked()
	got := map[int]int{}
	for _, k := range keysOwnedBy(c.ring, 1, 4) {
		got[place(t, c, load, k, noAvoid)]++
	}
	if got[1] != 2 || got[2] != 2 {
		t.Fatalf("wave split %v, want 2-2", got)
	}
	var prom strings.Builder
	if err := c.PromSection()(&prom); err != nil {
		t.Fatal(err)
	}
	if want := "gametree_shard_rerouted_tasks_total 2\n"; c.rerouted != 2 || !strings.Contains(prom.String(), want) {
		t.Fatalf("rerouted %d, want 2 on /metrics as %q", c.rerouted, want)
	}
}

// TestRouteIdleKeepsAffinity: with nothing in flight, a lone task goes to
// its hash owner, so an idle ring keeps every key where its table
// entries are.
func TestRouteIdleKeepsAffinity(t *testing.T) {
	c := routeCoord([]int{1, 2, 3})
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("connect4|%d", i)
		to, ok := c.routeLocked(k, c.loadsLocked(), noAvoid, time.Now())
		if !ok || to != c.ring.OwnerString(k) {
			t.Fatalf("%s: routed to %d (ok %v), hash owner %d", k, to, ok, c.ring.OwnerString(k))
		}
	}
	if c.rerouted != 0 {
		t.Fatalf("rerouted %d on an idle ring, want 0", c.rerouted)
	}
}

// TestRouteSkipsDeadWorker: a dead worker receives nothing, not even the
// keys it owns; with the whole ring dead, routing fails and names the
// hash owner.
func TestRouteSkipsDeadWorker(t *testing.T) {
	c := routeCoord([]int{1, 2, 3}, 2)
	load := c.loadsLocked()
	keys := append(keysOwnedBy(c.ring, 2, 20), keysOwnedBy(c.ring, 1, 10)...)
	for _, k := range keys {
		if to := place(t, c, load, k, noAvoid); to == 2 {
			t.Fatalf("%s routed to the dead worker", k)
		}
	}
	c = routeCoord([]int{1, 2, 3}, 1, 2, 3)
	if to, ok := c.routeLocked("random|0", c.loadsLocked(), noAvoid, time.Now()); ok || to != c.ring.OwnerString("random|0") {
		t.Fatalf("dead ring: routed to %d (ok %v), want the hash owner and ok false", to, ok)
	}
}

// TestRouteReissueAvoidsPrevious: a reissue never goes back to the
// worker it left while another is live, whatever the loads; with that
// worker the only one live, it goes there.
func TestRouteReissueAvoidsPrevious(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := routeCoord([]int{1, 2, 3})
	for i := 0; i < 500; i++ {
		load := map[int]int{1: rng.Intn(4), 2: rng.Intn(4), 3: rng.Intn(4)}
		prev := 1 + rng.Intn(3)
		k := fmt.Sprintf("random|%d", i)
		if to, ok := c.routeLocked(k, load, prev, time.Now()); !ok || to == prev {
			t.Fatalf("%s: reissue from %d went to %d (ok %v), loads %v", k, prev, to, ok, load)
		}
	}
	c = routeCoord([]int{1, 2, 3}, 1, 3)
	if to, ok := c.routeLocked("random|0", map[int]int{2: 5}, 2, time.Now()); !ok || to != 2 {
		t.Fatalf("lone live worker 2: reissue went to %d (ok %v)", to, ok)
	}
}

// TestRouteNeverExceedsCap: placing tasks while others settle, every
// worker stays at or under ceil((in-flight + 1) / live) at each
// placement, on keys that mostly share one owner.
func TestRouteNeverExceedsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := routeCoord([]int{1, 2, 3})
	hot := keysOwnedBy(c.ring, 3, 50)
	for i := 0; i < 2000; i++ {
		if len(c.pending) > 0 && rng.Intn(3) == 0 {
			for id := range c.pending {
				delete(c.pending, id) // a task settles
				break
			}
			continue
		}
		k := hot[rng.Intn(len(hot))]
		if rng.Intn(4) == 0 {
			k = fmt.Sprintf("random|x%d", i)
		}
		load := c.loadsLocked()
		limit := (len(c.pending) + 3) / 3 // ceil((in-flight + 1) / live)
		if to := place(t, c, load, k, noAvoid); load[to] > limit {
			t.Fatalf("placement %d: worker %d holds %d, cap %d", i, to, load[to], limit)
		}
	}
}
