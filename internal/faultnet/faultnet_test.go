package faultnet

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestInjectorDropRate(t *testing.T) {
	in := NewInjector(Config{Seed: 42, Drop: 0.3})
	var delivered atomic.Int64
	in.Start(func(Packet) { delivered.Add(1) })
	defer in.Close()
	const N = 10000
	for i := 0; i < N; i++ {
		in.Send(Packet{From: 0, To: 1, Payload: i})
	}
	st := in.Stats()
	if st.Dropped+st.Delivered != N {
		t.Fatalf("dropped %d + delivered %d != %d", st.Dropped, st.Delivered, N)
	}
	rate := float64(st.Dropped) / N
	if rate < 0.25 || rate > 0.35 {
		t.Fatalf("drop rate %.3f far from 0.3", rate)
	}
	if got := delivered.Load(); got != st.Delivered {
		t.Fatalf("callback count %d != stats delivered %d", got, st.Delivered)
	}
}

func TestInjectorDuplication(t *testing.T) {
	in := NewInjector(Config{Seed: 7, Dup: 0.5})
	var delivered atomic.Int64
	in.Start(func(Packet) { delivered.Add(1) })
	defer in.Close()
	const N = 2000
	for i := 0; i < N; i++ {
		in.Send(Packet{From: 1, To: 2, Payload: i})
	}
	st := in.Stats()
	if st.Duplicated == 0 {
		t.Fatal("no duplicates at dup=0.5")
	}
	if delivered.Load() != int64(N)+st.Duplicated {
		t.Fatalf("delivered %d, want %d originals + %d dups", delivered.Load(), N, st.Duplicated)
	}
}

func TestInjectorDelayAndReorder(t *testing.T) {
	in := NewInjector(Config{Seed: 9, Reorder: 0.3, DelayMax: 2 * time.Millisecond})
	var mu sync.Mutex
	var got []int
	done := make(chan struct{}, 1)
	const N = 500
	in.Start(func(p Packet) {
		mu.Lock()
		got = append(got, p.Payload.(int))
		if len(got) == N {
			done <- struct{}{}
		}
		mu.Unlock()
	})
	defer in.Close()
	for i := 0; i < N; i++ {
		in.Send(Packet{From: 0, To: 1, Payload: i})
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d of %d delivered", len(got), N)
	}
	if in.Stats().Reordered == 0 {
		t.Fatal("no reordering at reorder=0.3")
	}
	inversions := 0
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("delivery order identical to send order despite jitter")
	}
}

func TestInjectorCrashDropsTraffic(t *testing.T) {
	in := NewInjector(Config{Seed: 1, Crashes: []ProcCrash{{Proc: 2, At: 0}}})
	var delivered atomic.Int64
	in.Start(func(Packet) { delivered.Add(1) })
	defer in.Close()
	time.Sleep(5 * time.Millisecond) // let the crash timer fire
	if in.Alive(2) {
		t.Fatal("proc 2 should be dead")
	}
	if !in.Alive(0) || !in.Alive(-1) {
		t.Fatal("procs 0 and coordinator should be alive")
	}
	in.Send(Packet{From: 0, To: 2, Payload: 1})
	in.Send(Packet{From: 2, To: 0, Payload: 2})
	in.Send(Packet{From: 0, To: 1, Payload: 3})
	if delivered.Load() != 1 {
		t.Fatalf("delivered %d, want only the 0->1 packet", delivered.Load())
	}
	if in.Stats().CrashDropped != 2 {
		t.Fatalf("crash_dropped %d, want 2", in.Stats().CrashDropped)
	}
}

// TestInjectorPartitionWindow: during the scheduled window both
// directions of the A-B link blackhole while every other link keeps
// flowing; after the window the link heals. Partition drops must bypass
// the per-link PRNG lanes entirely (like crash drops), so an event log
// recorded under a partition stays aligned with a partition-free replay.
func TestInjectorPartitionWindow(t *testing.T) {
	in := NewInjector(Config{
		Seed:       1,
		Partitions: []LinkPartition{{A: 0, B: 1, At: 0, For: 100 * time.Millisecond}},

		LogEvents: true,
	})
	var delivered atomic.Int64
	in.Start(func(Packet) { delivered.Add(1) })
	defer in.Close()

	// Inside the window: 0<->1 is severed both ways, 0<->2 is not, and
	// both endpoints are still alive (a partition is not a crash).
	in.Send(Packet{From: 0, To: 1, Payload: 1})
	in.Send(Packet{From: 1, To: 0, Payload: 2})
	in.Send(Packet{From: 0, To: 2, Payload: 3})
	in.Send(Packet{From: 2, To: 1, Payload: 4})
	if !in.Alive(0) || !in.Alive(1) {
		t.Fatal("partitioned endpoints should stay alive")
	}
	if got := delivered.Load(); got != 2 {
		t.Fatalf("delivered %d during window, want only the 0->2 and 2->1 packets", got)
	}
	if pd := in.Stats().PartitionDropped; pd != 2 {
		t.Fatalf("partition_dropped %d, want 2", pd)
	}
	// Blackholed sends never reached the lanes: the decision log holds
	// only the two packets that flowed, so replays stay aligned.
	if ev := in.Events(); len(ev) != 2 {
		t.Fatalf("event log has %d entries, want 2 (partition drops must not consume lane decisions): %+v", len(ev), ev)
	}

	// After the window the link heals.
	deadline := time.Now().Add(5 * time.Second)
	for in.partitioned(0, 1, time.Now()) {
		if time.Now().After(deadline) {
			t.Fatal("partition never healed")
		}
		time.Sleep(time.Millisecond)
	}
	in.Send(Packet{From: 0, To: 1, Payload: 5})
	in.Send(Packet{From: 1, To: 0, Payload: 6})
	if got := delivered.Load(); got != 4 {
		t.Fatalf("delivered %d after heal, want 4", got)
	}
}

func TestInjectorStallWindow(t *testing.T) {
	in := NewInjector(Config{Seed: 1, Stalls: []ProcStall{{Proc: 1, At: 0, For: 50 * time.Millisecond}}})
	in.Start(func(Packet) {})
	defer in.Close()
	time.Sleep(5 * time.Millisecond)
	if _, ok := in.StalledUntil(1); !ok {
		t.Fatal("proc 1 should be stalled now")
	}
	if _, ok := in.StalledUntil(0); ok {
		t.Fatal("proc 0 should not be stalled")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := in.StalledUntil(1); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stall never ended")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSeedReplay is the reproducibility contract: same seed, same per-link
// send sequence => byte-for-byte identical event log; a different seed
// must diverge. The script uses several links and only probabilistic
// faults (no wall-clock schedule), sent single-threaded so the per-link
// ordering is fixed.
func TestSeedReplay(t *testing.T) {
	script := func(seed int64) []byte {
		in := NewInjector(Config{
			Seed:     seed,
			Drop:     0.2,
			Dup:      0.1,
			Reorder:  0.1,
			Delay:    0.15,
			DelayMax: time.Millisecond,

			LogEvents: true,
		})
		in.Start(func(Packet) {})
		links := [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {-1, 0}, {3, -1}}
		for i := 0; i < 1000; i++ {
			l := links[i%len(links)]
			in.Send(Packet{From: l[0], To: l[1], Payload: i})
		}
		var buf bytes.Buffer
		if err := in.WriteLog(&buf); err != nil {
			t.Fatal(err)
		}
		in.Close()
		return buf.Bytes()
	}
	a, b := script(12345), script(12345)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different event logs")
	}
	if len(a) == 0 {
		t.Fatal("empty event log")
	}
	c := script(54321)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical event logs")
	}
}

// TestLaneIndependence: interleaving sends across links differently must
// not change any link's decision stream.
func TestLaneIndependence(t *testing.T) {
	run := func(order []int) []byte {
		in := NewInjector(Config{Seed: 99, Drop: 0.3, Dup: 0.2, LogEvents: true})
		in.Start(func(Packet) {})
		counts := map[int]int{}
		for _, link := range order {
			in.Send(Packet{From: link, To: 10 + link, Payload: counts[link]})
			counts[link]++
		}
		var buf bytes.Buffer
		if err := in.WriteLog(&buf); err != nil {
			t.Fatal(err)
		}
		in.Close()
		return buf.Bytes()
	}
	// Same multiset of per-link sends, radically different interleaving.
	var a, b []int
	for i := 0; i < 300; i++ {
		a = append(a, i%3)
	}
	for link := 0; link < 3; link++ {
		for i := 0; i < 100; i++ {
			b = append(b, link)
		}
	}
	if !bytes.Equal(run(a), run(b)) {
		t.Fatal("per-link decisions depend on cross-link interleaving")
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Drop: 1.5},
		{Dup: -0.1},
		{Delay: 0.5},                       // delay prob without bound
		{Reorder: 0.1},                     // reorder without jitter bound
		{Crashes: []ProcCrash{{Proc: -1}}}, // negative proc
		{Stalls: []ProcStall{{Proc: 0, At: 0, For: 0}}},             // zero stall
		{Stalls: []ProcStall{{Proc: 0, At: -1, For: 1}}},            // negative start
		{Partitions: []LinkPartition{{A: -1, B: 2, For: 1}}},        // negative proc
		{Partitions: []LinkPartition{{A: 2, B: 2, For: 1}}},         // self link
		{Partitions: []LinkPartition{{A: 0, B: 1, For: 0}}},         // zero window
		{Partitions: []LinkPartition{{A: 0, B: 1, At: -1, For: 1}}}, // negative start
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should fail validation: %+v", i, cfg)
		}
	}
	good := Config{Seed: 1, Drop: 0.3, Dup: 0.1, Reorder: 0.1, Delay: 0.2, DelayMax: time.Millisecond}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
