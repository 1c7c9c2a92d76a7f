package shard

import (
	"math/bits"
	"testing"
)

func TestRingOwnerDeterministic(t *testing.T) {
	a := NewRing([]int{1, 2, 3})
	b := NewRing([]int{1, 2, 3})
	for k := uint64(0); k < 1000; k++ {
		h := splitmix64(k)
		if a.Owner(h) != b.Owner(h) {
			t.Fatalf("rings disagree at key %d", k)
		}
	}
}

func TestRingSpread(t *testing.T) {
	r := NewRing([]int{1, 2, 3, 4})
	counts := map[int]int{}
	const n = 20000
	for k := 0; k < n; k++ {
		counts[r.Owner(splitmix64(uint64(k)))]++
	}
	for p, c := range counts {
		frac := float64(c) / n
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("proc %d owns %.1f%% of the keyspace", p, 100*frac)
		}
	}
	if len(counts) != 4 {
		t.Errorf("only %d procs own keys", len(counts))
	}
}

// TestRingEvenShares sums each processor's vnode arcs: with the vnodes
// evenly spaced, each of n processors owns 1/n of the keyspace, to
// within one key per vnode.
func TestRingEvenShares(t *testing.T) {
	for n := 2; n <= 5; n++ {
		procs := make([]int, n)
		for i := range procs {
			procs[i] = i + 1
		}
		r := NewRing(procs)
		share := map[int]uint64{}
		for i, v := range r.vnodes {
			// The vnode owns the keys after its predecessor, up to itself;
			// the first one's arc wraps around the top of the keyspace.
			prev := r.vnodes[(i+len(r.vnodes)-1)%len(r.vnodes)].hash
			share[v.proc] += v.hash - prev
		}
		want, _ := bits.Div64(1, 0, uint64(n)) // 2^64 / n
		for _, p := range procs {
			if d := int64(share[p] - want); d < -ringVnodes || d > ringVnodes {
				t.Errorf("n=%d: proc %d owns %d keys, want %d±%d", n, p, share[p], want, ringVnodes)
			}
		}
	}
}

// TestRingCrashMovesOnlyDeadKeys is the consistent-hash property the
// tier relies on: killing one worker reroutes exactly that worker's
// keys, everything else stays put.
func TestRingCrashMovesOnlyDeadKeys(t *testing.T) {
	r := NewRing([]int{1, 2, 3})
	alive := func(p int) bool { return p != 2 }
	moved, kept := 0, 0
	for k := 0; k < 5000; k++ {
		h := splitmix64(uint64(k))
		before := r.Owner(h)
		after, ok := r.OwnerLive(h, alive)
		if !ok {
			t.Fatal("no live owner with two of three up")
		}
		if after == 2 {
			t.Fatalf("key %d routed to the dead proc", k)
		}
		if before == 2 {
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %d moved from live proc %d to %d", k, before, after)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

func TestRingAllDead(t *testing.T) {
	r := NewRing([]int{1, 2})
	if _, ok := r.OwnerLive(7, func(int) bool { return false }); ok {
		t.Error("ok=true with every proc dead")
	}
}

func TestRingStringKeys(t *testing.T) {
	r := NewRing([]int{1, 2, 3})
	if got, want := r.OwnerString("random|42:5"), r.Owner(fnv64a("random|42:5")); got != want {
		t.Errorf("OwnerString %d != Owner(fnv) %d", got, want)
	}
	// Distinct keys should not all land on one proc.
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		seen[r.OwnerString(string(rune('a'+i)))] = true
	}
	if len(seen) < 2 {
		t.Error("50 distinct string keys all routed to one proc")
	}
}
