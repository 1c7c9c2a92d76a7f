package engine

import (
	"math/bits"
	"sync/atomic"
)

// Hasher is an optional interface for Position: a position that can hash
// itself enables the transposition table. Hashes must be (with high
// probability) unique per position and identical for transposed positions
// that are truly equivalent.
type Hasher interface {
	Hash() uint64
}

// Bound flags for table entries. Exported so the shard tier can carry
// entries between processes in the two-level table. BoundPN marks a
// proof-number entry: the value lane carries packed proof/disproof
// numbers instead of a negamax score. Alpha-beta probes fall through
// every case of their bound switch on it (and PN probes ignore the other
// three), so the two engines share one table without misreading each
// other's entries.
const (
	BoundExact uint64 = iota
	BoundLower
	BoundUpper
	BoundPN
)

// RemoteTT is the remote half of a two-level transposition table: a
// client that forwards traffic to the shard owning a hash. Both methods
// MUST be non-blocking and asynchronous — they run on the search hot
// path. A remote probe does not return the entry; the remote layer
// installs any reply into the local table (Store), so it pays off on the
// NEXT probe of the same position. That keeps the hot path free of
// network latency while still sharing deep results between shards.
type RemoteTT interface {
	// Probe asks the owning shard for its entry of hash, on behalf of a
	// local probe at the given remaining depth.
	Probe(hash uint64, depth int)
	// Store forwards a locally stored entry to the owning shard.
	Store(hash uint64, value int32, depth int, flag uint64, best int)
}

// remoteHook pairs a remote client with its depth gate. Swapped
// atomically so SetRemote is safe against concurrent searches.
type remoteHook struct {
	r        RemoteTT
	minDepth int
}

// Entry packing: [ value:32 | depth:10 | gen:6 | flag:2 | best:14 ].
const (
	ttDepthBits = 10
	ttDepthMax  = 1<<ttDepthBits - 1 // also stands in for "no horizon"
	ttGenBits   = 6
	ttGenMask   = 1<<ttGenBits - 1
	ttBestBits  = 14
	ttNoMove    = 1<<ttBestBits - 1 // sentinel: no move

	// bucketWays entries share a bucket; at 16 bytes per entry a 4-way
	// bucket is exactly one 64-byte cache line.
	bucketWays = 4

	// ttAgePenalty is the replacement-score cost of each generation of
	// age: a stale deep entry loses to a current shallow one once it is
	// depth/ttAgePenalty generations old.
	ttAgePenalty = 8
)

// Table is a fixed-size lock-free transposition table shared between
// goroutines. Entries are grouped into 4-way buckets (one cache line);
// each entry is a pair of 64-bit words written atomically with the
// standard XOR validation trick (key^data, data): a torn read/write is
// detected by the checksum failing, never returned as a wrong entry.
// Within a bucket, replacement is depth-preferred with generation aging —
// a same-position entry is always updated, otherwise an empty slot is
// taken, otherwise the entry with the lowest depth-minus-age score is
// evicted — so deep results no longer vanish to replace-always
// collisions. Hits are advisory either way. The search body keys, probes
// and stores only at nodes above its split horizon, more than two plies
// from the depth horizon or with none, so entries stand for whole
// subtrees.
type Table struct {
	words  []atomic.Uint64 // 2 per entry, bucketWays entries per bucket
	mask   uint64          // bucket-index mask
	gen    atomic.Uint32   // current generation (aging clock)
	remote atomic.Pointer[remoteHook]
}

// NewTable allocates a table with at least the given number of entries
// (rounded up so the bucket count is a power of two). Sizes below 1 panic.
func NewTable(entries int) *Table {
	if entries < 1 {
		panic("engine: table needs at least one entry")
	}
	buckets := (entries + bucketWays - 1) / bucketWays
	n := 1 << bits.Len(uint(buckets-1))
	return &Table{words: make([]atomic.Uint64, 2*bucketWays*n), mask: uint64(n - 1)}
}

// Advance bumps the aging clock. Call it once per top-level search so
// entries from earlier searches become progressively cheaper to evict.
func (t *Table) Advance() {
	if t != nil {
		t.gen.Add(1)
	}
}

// packEntry encodes value, depth, flag, best-move index and generation
// into one word. Negative depths (depth-unlimited searches, which carry
// exact-to-terminal results) and depths beyond the field width clamp to
// ttDepthMax, so a later `stored >= wanted` probe comparison stays sound
// instead of wrapping around. The flag keeps its two bits only: a flag
// off the wire (ttstore, ttreply) cannot spill into the generation.
func packEntry(value int32, depth int, flag uint64, best, gen int) uint64 {
	if depth < 0 || depth > ttDepthMax {
		depth = ttDepthMax
	}
	if best < 0 || best >= ttNoMove {
		best = ttNoMove
	}
	return uint64(uint32(value))<<32 | uint64(depth)<<22 |
		uint64(gen&ttGenMask)<<16 | (flag&3)<<14 | uint64(best)
}

func unpackEntry(d uint64) (value int32, depth int, flag uint64, best int) {
	value = int32(uint32(d >> 32))
	depth = int(d >> 22 & ttDepthMax)
	flag = (d >> 14) & 3
	best = int(d & ttNoMove)
	if best == ttNoMove {
		best = -1
	}
	return
}

func entryGen(d uint64) int { return int(d >> 16 & ttGenMask) }

// Store records a search result for the position with the given hash.
// The return value reports whether the write displaced a live entry of a
// different position (an eviction) — refreshes of the same position and
// writes into empty slots return false. It feeds the telemetry layer's
// eviction counter; callers are free to ignore it.
func (t *Table) Store(hash uint64, value int32, depth int, flag uint64, best int) bool {
	if t == nil {
		return false
	}
	gen := int(t.gen.Load())
	d := packEntry(value, depth, flag, best, gen)
	base := (hash & t.mask) * (2 * bucketWays)
	slot := base
	evicted := false
	empty, victim := uint64(0), uint64(0)
	haveEmpty, haveVictim := false, false
	minScore := 0
	for s := uint64(0); s < bucketWays; s++ {
		i := base + 2*s
		k := t.words[i].Load()
		e := t.words[i+1].Load()
		if k^e == hash {
			// Same position: always refresh.
			slot = i
			goto write
		}
		if k == 0 && e == 0 {
			if !haveEmpty {
				empty, haveEmpty = i, true
			}
			continue
		}
		_, edepth, _, _ := unpackEntry(e)
		score := edepth - ttAgePenalty*((gen-entryGen(e))&ttGenMask)
		if !haveVictim || score < minScore {
			victim, haveVictim, minScore = i, true, score
		}
	}
	switch {
	case haveEmpty:
		slot = empty
	case haveVictim:
		slot = victim
		evicted = true
	}
write:
	t.words[slot].Store(hash ^ d)
	t.words[slot+1].Store(d)
	return evicted
}

// Probe looks the position up across its bucket. ok is false on a miss
// (or a torn entry).
func (t *Table) Probe(hash uint64) (value int32, depth int, flag uint64, best int, ok bool) {
	if t == nil {
		return 0, 0, 0, -1, false
	}
	base := (hash & t.mask) * (2 * bucketWays)
	for s := uint64(0); s < bucketWays; s++ {
		i := base + 2*s
		k := t.words[i].Load()
		d := t.words[i+1].Load()
		if k|d == 0 {
			continue // empty slot (also rejects phantom hash-0 hits)
		}
		if k^d == hash {
			value, depth, flag, best = unpackEntry(d)
			return value, depth, flag, best, true
		}
	}
	return 0, 0, 0, -1, false
}

// Len returns the capacity in entries.
func (t *Table) Len() int { return len(t.words) / 2 }

// Proof-number entries pack both numbers into the 32-bit value lane of
// the standard entry layout: [pn:16 | dn:16], with 0xFFFF standing for
// infinity and finite values saturating at 0xFFFE. Saturation is safe:
// stored numbers only seed a re-expanded node's initialization — the
// solver recomputes exact numbers from the children — and the entries
// that decide correctness (solved: pn or dn zero) always pack exactly.
const (
	// PNInf is the solver-side infinity for proof/disproof numbers.
	PNInf uint32 = ^uint32(0)

	pnPackedInf = 0xFFFF
	pnPackedMax = 0xFFFE
)

// packPNHalf narrows one proof/disproof number to its 16-bit lane.
func packPNHalf(n uint32) uint64 {
	if n == PNInf {
		return pnPackedInf
	}
	if n > pnPackedMax {
		n = pnPackedMax
	}
	return uint64(n)
}

// unpackPNHalf widens one 16-bit lane back to a solver number.
func unpackPNHalf(h uint64) uint32 {
	if h == pnPackedInf {
		return PNInf
	}
	return uint32(h)
}

// StorePN records proof/disproof numbers for the position with the given
// hash. Solved entries (pn or dn zero: a decided subtree, exact forever)
// are stored at the maximum depth, so the depth-preferred replacement
// keeps them ahead of unsolved hints and the two-level remote tier
// forwards them to the owning shard; unsolved snapshots stay at depth 1 —
// local move-ordering fuel, too volatile to ship. The eviction return
// matches Store.
func (t *Table) StorePN(hash uint64, pn, dn uint32) bool {
	depth := 1
	if pn == 0 || dn == 0 {
		depth = ttDepthMax
	}
	value := int32(packPNHalf(pn)<<16 | packPNHalf(dn))
	return t.StoreShared(hash, value, depth, BoundPN, -1)
}

// ProbePN looks up proof/disproof numbers, ignoring entries of any other
// bound kind (ok false). On a complete miss an asynchronous remote probe
// is issued at the solved-entry depth, so shards cross-seed solved
// subtrees; a live local entry — even an unsolved hint — suppresses the
// remote traffic, which would otherwise fire on every expansion.
func (t *Table) ProbePN(hash uint64) (pn, dn uint32, ok bool) {
	value, _, flag, _, hit := t.Probe(hash)
	if t != nil && !hit {
		if h := t.remote.Load(); h != nil {
			h.r.Probe(hash, ttDepthMax)
		}
	}
	if !hit || flag != BoundPN {
		return 0, 0, false
	}
	v := uint64(uint32(value))
	return unpackPNHalf(v >> 16), unpackPNHalf(v & 0xFFFF), true
}

// SetRemote attaches (or, with nil, detaches) the remote half of a
// two-level table. Probes and stores at remaining depth >= minDepth are
// mirrored to the remote client: shallow traffic — the overwhelming bulk,
// and the least valuable — stays local, so the remote window never
// saturates on leaf-adjacent positions.
func (t *Table) SetRemote(r RemoteTT, minDepth int) {
	if t == nil {
		return
	}
	if r == nil {
		t.remote.Store(nil)
		return
	}
	t.remote.Store(&remoteHook{r: r, minDepth: minDepth})
}

// ProbeAt is Probe plus the remote tier: on a local miss (or a local
// entry too shallow for depth) it issues an asynchronous remote probe and
// returns the local result immediately. The remote reply, if one comes,
// lands in this table for later probes of the same position.
func (t *Table) ProbeAt(hash uint64, depth int) (value int32, d int, flag uint64, best int, ok bool) {
	value, d, flag, best, ok = t.Probe(hash)
	if t == nil {
		return
	}
	if h := t.remote.Load(); h != nil && depth >= h.minDepth && (!ok || d < depth) {
		h.r.Probe(hash, depth)
	}
	return
}

// StoreShared is Store plus the remote tier: entries deep enough for the
// depth gate are also forwarded (asynchronously) to the owning shard.
// The remote layer itself installs replies and remote stores via plain
// Store, which never forwards — that asymmetry is what prevents echo.
func (t *Table) StoreShared(hash uint64, value int32, depth int, flag uint64, best int) bool {
	evicted := t.Store(hash, value, depth, flag, best)
	if t == nil {
		return false
	}
	if h := t.remote.Load(); h != nil && depth >= h.minDepth {
		h.r.Store(hash, value, depth, flag, best)
	}
	return evicted
}
