// Package shard is the distributed serving tier: a coordinator process
// that expands root positions a bounded number of plies and routes the
// frontier to worker processes by consistent hashing with bounded loads
// (a task goes to the first live worker in ring order from its key's
// hash whose in-flight count is under an even share, so an idle ring
// keeps each key on its hash owner), each worker running a resident
// engine.Pool over its own transposition table, with deep entries shared
// between workers through a two-level table (local bucketed probe first,
// asynchronous remote probe to the hash's owning shard on a miss; table
// entries always go to their plain hash owner). Everything crosses
// processes over the internal/transport TCP realization of
// faultnet.Network, so the tier inherits the transport's lossy contract
// and supplies its own reliability: task timeout plus reissue to another
// live worker at the coordinator, result dedup at the workers, liveness
// via worker pings.
package shard

import (
	"fmt"
	"math/bits"
	"sort"
)

// splitmix64 is the avalanche mix behind vnode order — a local copy
// (games has one too) so the ring does not import a game package.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fnv64a hashes a task key string (the canonical position form) onto the
// ring's keyspace: FNV-1a, then a splitmix64 finish. FNV-1a alone leaves
// the top bits, which pick the arc on an evenly spaced ring, almost
// blind to a key's last bytes.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return splitmix64(h)
}

// ringVnodes is the number of virtual nodes per processor: enough that
// a dead processor's keys scatter over the survivors, few enough that
// the ring stays a trivial binary search.
const ringVnodes = 64

type vnode struct {
	hash uint64
	proc int
}

// Ring is a consistent-hash ring over processor ids. Keys map to the
// first vnode clockwise from the key's hash; when that processor is
// down, ownership passes to the next *distinct* live processor in ring
// order, so a crash moves only the dead shard's keys. The vnodes keep
// their hashed order but sit evenly spaced around the keyspace, so each
// of n processors owns exactly 1/n of it. A Ring is immutable after New —
// membership is fixed per deployment, liveness is a query-time predicate.
type Ring struct {
	vnodes []vnode
	procs  []int
}

// NewRing builds the ring. Procs must be non-empty and distinct.
func NewRing(procs []int) *Ring {
	if len(procs) == 0 {
		panic("shard: ring needs at least one processor")
	}
	seen := make(map[int]bool, len(procs))
	r := &Ring{procs: append([]int(nil), procs...)}
	for _, p := range procs {
		if seen[p] {
			panic(fmt.Sprintf("shard: duplicate processor %d in ring", p))
		}
		seen[p] = true
		for v := 0; v < ringVnodes; v++ {
			h := splitmix64(uint64(uint32(p))<<32 | uint64(v))
			r.vnodes = append(r.vnodes, vnode{hash: h, proc: p})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool { return r.vnodes[i].hash < r.vnodes[j].hash })
	n := uint64(len(r.vnodes))
	for i := range r.vnodes {
		// floor(i * 2^64 / n): every vnode's arc is 2^64/n, to within 1.
		r.vnodes[i].hash, _ = bits.Div64(uint64(i), 0, n)
	}
	return r
}

// Owner returns the processor owning a key hash, ignoring liveness.
func (r *Ring) Owner(key uint64) int {
	p, _ := r.walk(key, nil)
	return p
}

// OwnerString is Owner over a string key.
func (r *Ring) OwnerString(key string) int { return r.Owner(fnv64a(key)) }

// OwnerLive returns the first live processor at or after the key's ring
// position, walking distinct processors in ring order. ok is false when
// alive rejects every member.
func (r *Ring) OwnerLive(key uint64, alive func(int) bool) (proc int, ok bool) {
	return r.walk(key, alive)
}

// OwnerLiveString is OwnerLive over a string key.
func (r *Ring) OwnerLiveString(key string, alive func(int) bool) (int, bool) {
	return r.OwnerLive(fnv64a(key), alive)
}

func (r *Ring) walk(key uint64, alive func(int) bool) (int, bool) {
	n := len(r.vnodes)
	start := sort.Search(n, func(i int) bool { return r.vnodes[i].hash >= key }) % n
	tried := make(map[int]bool, len(r.procs))
	for i := 0; i < n && len(tried) < len(r.procs); i++ {
		p := r.vnodes[(start+i)%n].proc
		if tried[p] {
			continue
		}
		tried[p] = true
		if alive == nil || alive(p) {
			return p, true
		}
	}
	return r.vnodes[start].proc, false
}
