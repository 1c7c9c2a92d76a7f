package engine

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestEntryPackRoundTrip(t *testing.T) {
	f := func(value int32, depth uint16, flag uint8, best uint16, gen uint8) bool {
		fl := uint64(flag % 3)
		b := int(best % 1000)
		d := int(depth) % (ttDepthMax + 1)
		g := int(gen) & ttGenMask
		e := packEntry(value, d, fl, b, g)
		v2, d2, f2, b2 := unpackEntry(e)
		return v2 == value && d2 == d && f2 == fl && b2 == b && entryGen(e) == g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// The no-move sentinel round-trips to -1.
	if _, _, _, b := unpackEntry(packEntry(5, 3, BoundExact, -1, 0)); b != -1 {
		t.Errorf("sentinel best = %d", b)
	}
}

// Negative depths (depth-unlimited searches) used to wrap to 65535 via the
// uint16 conversion, making every later `stored >= wanted` probe
// comparison bogus; they must clamp to the "no horizon" maximum instead.
func TestNegativeDepthClamps(t *testing.T) {
	for _, depth := range []int{-1, -5, -1 << 20} {
		if _, d, _, _ := unpackEntry(packEntry(9, depth, BoundExact, 2, 0)); d != ttDepthMax {
			t.Errorf("packEntry(depth=%d) round-trips to %d, want %d", depth, d, ttDepthMax)
		}
	}
	// Over-wide positive depths clamp too, rather than corrupting fields.
	if _, d, _, _ := unpackEntry(packEntry(9, ttDepthMax+1, BoundExact, 2, 0)); d != ttDepthMax {
		t.Errorf("oversized depth round-trips to %d, want %d", d, ttDepthMax)
	}
	tab := NewTable(64)
	tab.Store(77, 3, -1, BoundExact, 1)
	v, d, _, _, ok := tab.Probe(77)
	if !ok || v != 3 || d != ttDepthMax {
		t.Errorf("stored depth -1: got v=%d d=%d ok=%v, want v=3 d=%d", v, d, ok, ttDepthMax)
	}
	// A depth-unlimited entry satisfies any probe's depth requirement.
	if d < 20 || d < -1 {
		t.Errorf("clamped depth %d does not dominate finite requests", d)
	}
}

// A depth-unlimited (negative depth) search must return the same exact
// values with and without a transposition table — the regression the old
// uint16 wraparound broke.
func TestSearchTTDepthUnlimited(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		pos := Keyed(RandomArena(rng.Int63(), 3+rng.Intn(3), 3), 0)
		plain := Search(pos, -1)
		tab := NewTable(1 << 12)
		tt, err := SearchOpt(context.Background(), pos, -1, SearchOptions{Table: tab, Workers: 1})
		if err != nil || plain.Value != tt.Value {
			t.Fatalf("trial %d: plain %d != tt %d (err %v)", trial, plain.Value, tt.Value, err)
		}
		// A second pass over the warm table must agree as well.
		if again, err := SearchOpt(context.Background(), pos, -1, SearchOptions{Table: tab, Workers: 1}); err != nil || again.Value != plain.Value {
			t.Fatalf("trial %d: warm tt %d != plain %d (err %v)", trial, again.Value, plain.Value, err)
		}
	}
}

func TestTableStoreProbe(t *testing.T) {
	tab := NewTable(1000)
	if tab.Len() != 1024 {
		t.Errorf("capacity %d, want 1024", tab.Len())
	}
	tab.Store(42, -7, 5, BoundLower, 2)
	v, d, f, b, ok := tab.Probe(42)
	if !ok || v != -7 || d != 5 || f != BoundLower || b != 2 {
		t.Errorf("probe: %v %v %v %v %v", v, d, f, b, ok)
	}
	if _, _, _, _, ok := tab.Probe(43); ok {
		t.Error("phantom hit")
	}
	// Same-position stores refresh in place.
	tab.Store(42, 11, 6, BoundExact, 3)
	if v, d, _, _, ok := tab.Probe(42); !ok || v != 11 || d != 6 {
		t.Errorf("refresh lost: %v %v %v", v, d, ok)
	}
	// A colliding hash (same bucket) lands in another way of the 4-way
	// bucket: both entries survive, and neither false-hits the other.
	other := uint64(42 + 4*tab.Len())
	tab.Store(other, 9, 1, BoundExact, 0)
	if v, _, _, _, ok := tab.Probe(42); !ok || v != 11 {
		t.Error("bucketed entry evicted by a single collision")
	}
	if v, _, _, _, ok := tab.Probe(other); !ok || v != 9 {
		t.Error("colliding entry lost")
	}
	var nilTab *Table
	nilTab.Store(1, 1, 1, BoundExact, 0) // must not panic
	nilTab.Advance()
	if _, _, _, _, ok := nilTab.Probe(1); ok {
		t.Error("nil table hit")
	}
}

// Depth-preferred aging replacement: when a bucket overflows, the
// shallowest stale entry goes first and deep current entries survive.
func TestTableBucketReplacement(t *testing.T) {
	tab := NewTable(bucketWays) // a single bucket
	buckets := uint64(tab.Len() / bucketWays)
	// Fill the bucket with same-bucket hashes at increasing depths.
	for i := 0; i < bucketWays; i++ {
		tab.Store(uint64(i)*buckets, int32(i), i+2, BoundExact, 0)
	}
	// Overflow with a deep entry: the shallowest (depth 2) is evicted.
	extra := uint64(bucketWays) * buckets
	tab.Store(extra, 99, 9, BoundExact, 0)
	if _, _, _, _, ok := tab.Probe(0); ok {
		t.Error("shallowest entry should have been evicted")
	}
	if v, _, _, _, ok := tab.Probe(extra); !ok || v != 99 {
		t.Error("new deep entry missing")
	}
	for i := 1; i < bucketWays; i++ {
		if _, _, _, _, ok := tab.Probe(uint64(i) * buckets); !ok {
			t.Errorf("deeper entry %d lost", i)
		}
	}
	// Aging: after many generations, even a deep entry yields to a
	// current shallow one.
	for i := 0; i < ttGenMask; i++ {
		tab.Advance()
	}
	tab.Store(extra+buckets, 7, 3, BoundExact, 0)
	if v, _, _, _, ok := tab.Probe(extra + buckets); !ok || v != 7 {
		t.Error("current shallow entry could not displace stale deep ones")
	}
}

func TestTableConcurrentTornWrites(t *testing.T) {
	tab := NewTable(4) // tiny: force constant collisions
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 5000; i++ {
				h := rng.Uint64()
				val := int32(h >> 33)
				tab.Store(h, val, int(h%64), BoundExact, int(h%7))
				if v, _, _, _, ok := tab.Probe(h); ok && v != val {
					// A hit must carry the value stored under that
					// exact hash; the XOR checksum guarantees it.
					t.Errorf("corrupted read: %d != %d", v, val)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestNewTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTable(0)
}

func TestSearchTTMatchesPlain(t *testing.T) {
	// Trees have no transpositions, so the TT can only help ordering —
	// values must be identical to the plain search.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		depth := 2 + rng.Intn(4)
		pos := Keyed(RandomArena(rng.Int63(), depth, 4), 0)
		plain := Search(pos, depth)
		tt, err := SearchOpt(context.Background(), pos, depth, SearchOptions{Table: NewTable(1 << 12), Workers: 1})
		if err != nil || plain.Value != tt.Value {
			t.Fatalf("trial %d: plain %d != tt %d (err %v)", trial, plain.Value, tt.Value, err)
		}
	}
}

func TestSearchIterativeMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		depth := 3 + rng.Intn(3)
		pos := Keyed(RandomArena(rng.Int63(), depth, 3), 0)
		direct := Search(pos, depth)
		iter, pv, err := SearchIterative(context.Background(), pos, depth, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if iter.Value != direct.Value {
			t.Fatalf("trial %d: iterative %d != direct %d", trial, iter.Value, direct.Value)
		}
		if len(pv) == 0 || pv[0] != iter.Best {
			t.Fatalf("trial %d: pv %v does not start with best move %d", trial, pv, iter.Best)
		}
		if len(pv) > depth {
			t.Fatalf("trial %d: pv longer than depth: %v", trial, pv)
		}
		// Every PV move must be legal.
		cur := Position(pos)
		for i, mv := range pv {
			moves := cur.Moves()
			if mv < 0 || mv >= len(moves) {
				t.Fatalf("trial %d: pv[%d]=%d illegal (%d moves)", trial, i, mv, len(moves))
			}
			cur = moves[mv]
		}
	}
}

func TestSearchIterativeCancellation(t *testing.T) {
	pos := Keyed(RandomArena(3, 12, 3), 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := SearchIterative(ctx, pos, 12, SearchOptions{}); err != ErrCancelled {
		t.Errorf("want ErrCancelled, got %v", err)
	}
}

func TestSearchParallelTTMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		depth := 4 + rng.Intn(3)
		pos := Keyed(RandomArena(rng.Int63(), depth, 3), 0)
		plain := Search(pos, depth)
		par, err := SearchOpt(context.Background(), pos, depth,
			SearchOptions{Table: NewTable(1 << 12), Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if par.Value != plain.Value {
			t.Fatalf("trial %d: parallel-tt %d != plain %d", trial, par.Value, plain.Value)
		}
	}
}

// FuzzTTEntryPacking holds the entry word to its packing contract over
// arbitrary fields — windowed searches store lower and upper bounds as
// well as exact values. The value and flag round-trip; a negative or oversized depth
// clamps to ttDepthMax; a best index outside [0, ttNoMove) maps to the
// no-move sentinel; the generation wraps to its field; and no field's
// out-of-range input leaks into another.
func FuzzTTEntryPacking(f *testing.F) {
	f.Add(int32(5), 3, uint64(BoundExact), 2, 0)
	f.Add(int32(-7), -1, uint64(BoundLower), -1, 63)
	f.Add(int32(1<<24), ttDepthMax+1, uint64(BoundUpper), ttNoMove, 64)
	f.Add(int32(-1<<31), 1<<20, uint64(BoundPN), 1<<30, -1)
	f.Add(int32(1<<31-1), 0, uint64(1<<40), ttNoMove-1, 1<<31)
	f.Fuzz(func(t *testing.T, value int32, depth int, flag uint64, best, gen int) {
		e := packEntry(value, depth, flag, best, gen)
		v, d, fl, b := unpackEntry(e)
		wantD := depth
		if depth < 0 || depth > ttDepthMax {
			wantD = ttDepthMax
		}
		wantB := best
		if best < 0 || best >= ttNoMove {
			wantB = -1
		}
		if v != value || d != wantD || fl != flag&3 || b != wantB || entryGen(e) != gen&ttGenMask {
			t.Fatalf("pack(v=%d d=%d f=%d b=%d g=%d) unpacks to (v=%d d=%d f=%d b=%d g=%d), want (%d %d %d %d %d)",
				value, depth, flag, best, gen, v, d, fl, b, entryGen(e), value, wantD, flag&3, wantB, gen&ttGenMask)
		}
	})
}

// FuzzPNEntry holds a proof-number entry to its contract over any pair of
// numbers: a StorePN → ProbePN round trip returns 0 and PNInf exactly,
// every finite number up to 0xFFFE exactly, and any larger finite number
// as 0xFFFE; and the alpha-beta view of the same entry (Probe) reads it
// as BoundPN with no best move, so the search body's bound switch, which
// cuts only on BoundExact, BoundLower and BoundUpper, can never cut on it.
func FuzzPNEntry(f *testing.F) {
	f.Add(uint64(1), uint32(0), uint32(1))
	f.Add(uint64(2), uint32(1), PNInf)
	f.Add(uint64(0), PNInf, uint32(0))
	f.Add(uint64(1<<63), uint32(pnPackedMax), uint32(pnPackedMax+1))
	f.Add(^uint64(0), PNInf-1, uint32(pnPackedInf))
	f.Fuzz(func(t *testing.T, hash uint64, pn, dn uint32) {
		want := func(n uint32) uint32 {
			if n != PNInf && n > pnPackedMax {
				return pnPackedMax
			}
			return n
		}
		tab := NewTable(4)
		tab.StorePN(hash, pn, dn)
		gotPN, gotDN, ok := tab.ProbePN(hash)
		if !ok || gotPN != want(pn) || gotDN != want(dn) {
			t.Fatalf("StorePN(%#x, %d, %d) probes as (%d, %d, %v), want (%d, %d, true)",
				hash, pn, dn, gotPN, gotDN, ok, want(pn), want(dn))
		}
		_, _, flag, best, hit := tab.Probe(hash)
		if !hit || flag != BoundPN || best != -1 {
			t.Fatalf("Probe of a PN entry: flag %d, best %d, hit %v; want BoundPN, -1, true", flag, best, hit)
		}
	})
}
