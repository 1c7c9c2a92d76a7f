package engine

import (
	"sync"
	"testing"
)

// A table that is only probed — plainly or by the proof-number solver —
// misses and never takes its slab.
func TestTableProbeOnlyTakesNoMemory(t *testing.T) {
	tab := NewTable(1 << 16)
	capacity := tab.Len()
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, _, ok := tab.Probe(7); ok {
			t.Fatal("Probe hit an empty table")
		}
		if _, _, ok := tab.ProbePN(7); ok {
			t.Fatal("ProbePN hit an empty table")
		}
	})
	if allocs != 0 {
		t.Errorf("probes of an empty table allocate %.1f times per run", allocs)
	}
	if tab.slab.Load() != nil || tab.Bytes() != 0 {
		t.Fatalf("probes took the slab: %d bytes", tab.Bytes())
	}
	if tab.Len() != capacity {
		t.Errorf("Len %d before any store, want %d", tab.Len(), capacity)
	}
	tab.Store(7, 3, 5, BoundExact, 0)
	if tab.Len() != capacity {
		t.Errorf("Len %d after the first store, want %d", tab.Len(), capacity)
	}
	if got, want := tab.Bytes(), int64(16*capacity); got != want {
		t.Errorf("Bytes %d after the first store, want %d", got, want)
	}
	var nilTab *Table
	if nilTab.Bytes() != 0 {
		t.Error("nil table reports bytes")
	}
}

// Every store path takes the slab: Store and StorePN.
func TestTableEveryStorePathAllocates(t *testing.T) {
	for name, store := range map[string]func(*Table){
		"Store":   func(tab *Table) { tab.Store(9, 1, 4, BoundLower, 0) },
		"StorePN": func(tab *Table) { tab.StorePN(9, 0, PNInf) },
	} {
		tab := NewTable(64)
		store(tab)
		if tab.Bytes() != int64(16*tab.Len()) {
			t.Errorf("%s: %d bytes after the first store, want %d", name, tab.Bytes(), 16*tab.Len())
		}
		if _, _, _, _, ok := tab.Probe(9); !ok {
			t.Errorf("%s: the first store does not read back", name)
		}
	}
}

// Eight goroutines storing into a fresh table at once publish exactly one
// slab: every goroutine sees the same one after its first store, and
// every entry stored reads back (an entry written into a slab that lost
// a race would be missing).
func TestTableFirstStoreRace(t *testing.T) {
	const goroutines, perG = 8, 64
	for trial := 0; trial < 20; trial++ {
		tab := NewTable(1 << 14)
		capacity := tab.Len()
		seen := make([]*slab, goroutines)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < perG; i++ {
					h := uint64(g*perG + i + 1) // distinct buckets: no eviction
					tab.Store(h, int32(h), 3, BoundExact, 0)
					if i == 0 {
						seen[g] = tab.slab.Load()
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		for g, s := range seen {
			if s == nil || s != seen[0] {
				t.Fatalf("trial %d: goroutine %d stored into slab %p, goroutine 0 into %p", trial, g, s, seen[0])
			}
		}
		if tab.slab.Load() != seen[0] {
			t.Fatalf("trial %d: the published slab changed after the first store", trial)
		}
		for h := uint64(1); h <= goroutines*perG; h++ {
			if v, _, _, _, ok := tab.Probe(h); !ok || v != int32(h) {
				t.Fatalf("trial %d: entry %d lost (ok=%v v=%d)", trial, h, ok, v)
			}
		}
		if n := TableEntries(tab); n != goroutines*perG {
			t.Fatalf("trial %d: %d live entries, want %d", trial, n, goroutines*perG)
		}
		if tab.Len() != capacity {
			t.Fatalf("trial %d: Len %d, want %d", trial, tab.Len(), capacity)
		}
	}
}
