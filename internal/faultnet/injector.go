package faultnet

import (
	"container/heap"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ProcCrash schedules a permanent processor failure: At after the network
// starts, Proc stops receiving and sending forever.
type ProcCrash struct {
	Proc int           `json:"proc"`
	At   time.Duration `json:"at"`
}

// ProcStall schedules a transient freeze: from At to At+For the processor
// executes nothing (its mailbox still accumulates). A stall longer than
// the shard coordinator's liveness timeout looks exactly like a crash to
// the rest of the ring — that is the false-positive scenario the
// coordinator's epoch fencing exists for.
type ProcStall struct {
	Proc int           `json:"proc"`
	At   time.Duration `json:"at"`
	For  time.Duration `json:"for"`
}

// LinkPartition schedules a bidirectional link blackhole: from At to
// At+For after the network starts, every packet between processors A
// and B — either direction — is silently dropped; the link heals when
// the window closes. Both endpoints stay alive and keep talking to the
// rest of the machine, which is what distinguishes a partition from a
// crash or a stall. Like crash drops, partition drops are counted in
// Stats but never consume a per-link PRNG decision and never appear in
// the event log, so the replay log stays aligned across runs.
type LinkPartition struct {
	A   int           `json:"a"`
	B   int           `json:"b"`
	At  time.Duration `json:"at"`
	For time.Duration `json:"for"`
}

// Config describes the fault mix for an Injector.
type Config struct {
	// Seed keys every per-link PRNG lane. Two injectors with the same seed
	// make identical decisions for the k'th packet on every link.
	Seed int64 `json:"seed"`

	// Drop, Dup, Reorder are per-packet probabilities in [0,1].
	Drop    float64 `json:"drop,omitempty"`
	Dup     float64 `json:"dup,omitempty"`
	Reorder float64 `json:"reorder,omitempty"`

	// Delay is the probability a packet is held back; DelayMax bounds the
	// uniform random hold time. Reordered packets use the same bound as
	// overtaking jitter (later sends on the link arrive first).
	Delay    float64       `json:"delay,omitempty"`
	DelayMax time.Duration `json:"delay_max,omitempty"`

	// Crashes and Stalls are processor failure schedules, fired off a
	// wall-clock timer from Start.
	Crashes []ProcCrash `json:"crashes,omitempty"`
	Stalls  []ProcStall `json:"stalls,omitempty"`

	// Partitions are scheduled bidirectional link blackholes.
	Partitions []LinkPartition `json:"partitions,omitempty"`

	// LogEvents records every per-link fault decision for replay
	// verification; MaxLogEvents bounds memory (0 = 1<<16 entries).
	LogEvents    bool `json:"log_events,omitempty"`
	MaxLogEvents int  `json:"max_log_events,omitempty"`
}

// Validate reports the first nonsensical knob, with enough context to fix
// the flag that produced it.
func (c Config) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("faultnet: %s probability %g out of range [0,1]", name, v)
		}
		return nil
	}
	if err := check("drop", c.Drop); err != nil {
		return err
	}
	if err := check("dup", c.Dup); err != nil {
		return err
	}
	if err := check("reorder", c.Reorder); err != nil {
		return err
	}
	if err := check("delay", c.Delay); err != nil {
		return err
	}
	if c.DelayMax < 0 {
		return fmt.Errorf("faultnet: negative delay bound %v", c.DelayMax)
	}
	if (c.Delay > 0 || c.Reorder > 0) && c.DelayMax == 0 {
		return fmt.Errorf("faultnet: delay/reorder enabled but delay bound is zero (set delay=<duration>)")
	}
	for _, cr := range c.Crashes {
		if cr.Proc < 0 {
			return fmt.Errorf("faultnet: crash of negative processor %d", cr.Proc)
		}
		if cr.At < 0 {
			return fmt.Errorf("faultnet: crash of processor %d at negative time %v", cr.Proc, cr.At)
		}
	}
	for _, st := range c.Stalls {
		if st.Proc < 0 {
			return fmt.Errorf("faultnet: stall of negative processor %d", st.Proc)
		}
		if st.At < 0 || st.For <= 0 {
			return fmt.Errorf("faultnet: stall of processor %d needs at>=0 and for>0 (got at=%v for=%v)", st.Proc, st.At, st.For)
		}
	}
	for _, pt := range c.Partitions {
		if pt.A < 0 || pt.B < 0 {
			return fmt.Errorf("faultnet: partition of negative processor (%d-%d)", pt.A, pt.B)
		}
		if pt.A == pt.B {
			return fmt.Errorf("faultnet: partition %d-%d needs two distinct processors", pt.A, pt.B)
		}
		if pt.At < 0 || pt.For <= 0 {
			return fmt.Errorf("faultnet: partition %d-%d needs at>=0 and for>0 (got at=%v for=%v)", pt.A, pt.B, pt.At, pt.For)
		}
	}
	return nil
}

// Event is one fault decision on one link: the idx'th packet sent from
// From to To was given Action (deliver, drop, dup, delay, reorder), with
// DelayNs the hold time when one applies. The (From,To,Idx) triple is the
// replay key: it is independent of goroutine scheduling.
type Event struct {
	From, To int
	Idx      int64
	Action   string
	DelayNs  int64
}

// splitmix64 is the standard 64-bit finalizer; good enough to decorrelate
// lane seeds derived from small integers.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// lane is the deterministic per-link decision stream. All state is
// guarded by the owning Injector's mutex.
type lane struct {
	state uint64 // splitmix64 stream state
	idx   int64  // packets seen on this link
}

func newLane(seed int64, from, to int) *lane {
	s := splitmix64(uint64(seed))
	s = splitmix64(s ^ uint64(from+1)*0x9E3779B97F4A7C15)
	s = splitmix64(s ^ uint64(to+2)*0xBF58476D1CE4E5B9)
	return &lane{state: s}
}

// next returns a uniform float64 in [0,1).
func (l *lane) next() float64 {
	l.state = splitmix64(l.state)
	return float64(l.state>>11) / (1 << 53)
}

// linkKey packs (from,to) — ids are small, and -1 is in range.
type linkKey struct{ from, to int }

// delayedPacket sits in the scheduler heap until its due time.
type delayedPacket struct {
	pkt Packet
	due time.Time
	seq int64 // tiebreak: stable pop order for equal due times
}

type delayHeap []delayedPacket

func (h delayHeap) Len() int { return len(h) }
func (h delayHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h delayHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x any)         { *h = append(*h, x.(delayedPacket)) }
func (h *delayHeap) Pop() any           { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h delayHeap) peek() delayedPacket { return h[0] }

// Injector is the seeded chaos network. Fault decisions are drawn per
// link in send order under a mutex; delayed and duplicated packets are
// re-delivered by a single scheduler goroutine off a min-heap, so
// delivery callbacks never run concurrently with the sender's fast path
// more than the real machine already tolerates.
type Injector struct {
	cfg     Config
	deliver func(Packet)
	start   time.Time

	mu     sync.Mutex
	lanes  map[linkKey]*lane
	events []Event
	heap   delayHeap
	seq    int64
	closed bool
	wake   chan struct{}
	done   chan struct{}

	crashed []atomic.Bool // indexed by proc id; grown under mu
	stalls  []ProcStall
	timers  []*time.Timer

	stats struct {
		sent, delivered, dropped, duplicated, delayed, reordered, crashDropped atomic.Int64
		partitionDropped                                                       atomic.Int64
	}
}

// NewInjector builds a chaos network from cfg. The caller should
// Validate first; NewInjector panics on an invalid config to catch
// programming errors (flag paths validate and return errors instead).
func NewInjector(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	max := cfg.MaxLogEvents
	if max == 0 {
		max = 1 << 16
	}
	cfg.MaxLogEvents = max
	return &Injector{
		cfg:   cfg,
		lanes: make(map[linkKey]*lane),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
}

func (in *Injector) Start(deliver func(Packet)) {
	in.deliver = deliver
	in.start = time.Now()
	in.stalls = in.cfg.Stalls
	for _, cr := range in.cfg.Crashes {
		in.growCrashed(cr.Proc)
		proc := cr.Proc
		in.timers = append(in.timers, time.AfterFunc(cr.At, func() {
			in.crashed[proc].Store(true)
		}))
	}
	go in.scheduler()
}

func (in *Injector) growCrashed(proc int) {
	for len(in.crashed) <= proc {
		in.crashed = append(in.crashed, atomic.Bool{})
	}
}

// Alive reports whether a processor is up (false once a scheduled crash
// event has fired). Processors the injector has never seen crash, the
// coordinator (-1) among them, are alive.
func (in *Injector) Alive(proc int) bool {
	if proc < 0 || proc >= len(in.crashed) {
		return true
	}
	return !in.crashed[proc].Load()
}

func (in *Injector) StalledUntil(proc int) (time.Time, bool) {
	now := time.Now()
	for _, st := range in.stalls {
		if st.Proc != proc {
			continue
		}
		begin := in.start.Add(st.At)
		end := begin.Add(st.For)
		if now.After(begin) && now.Before(end) {
			return end, true
		}
	}
	return time.Time{}, false
}

// partitioned reports whether the (from,to) link sits inside an active
// partition window at time now. Checked before the lane draw — like the
// crash gate — so partition drops consume no PRNG indices and the
// per-link decision log stays replayable with or without the partition.
func (in *Injector) partitioned(from, to int, now time.Time) bool {
	for _, pt := range in.cfg.Partitions {
		if (pt.A != from || pt.B != to) && (pt.A != to || pt.B != from) {
			continue
		}
		begin := in.start.Add(pt.At)
		if !now.Before(begin) && now.Before(begin.Add(pt.For)) {
			return true
		}
	}
	return false
}

func (in *Injector) Send(pkt Packet) {
	in.stats.sent.Add(1)
	if !in.Alive(pkt.From) || !in.Alive(pkt.To) {
		in.stats.crashDropped.Add(1)
		return
	}
	if in.partitioned(pkt.From, pkt.To, time.Now()) {
		in.stats.partitionDropped.Add(1)
		return
	}

	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return
	}
	key := linkKey{pkt.From, pkt.To}
	l := in.lanes[key]
	if l == nil {
		l = newLane(in.cfg.Seed, pkt.From, pkt.To)
		in.lanes[key] = l
	}
	idx := l.idx
	l.idx++

	// Fixed draw order — drop, delay, reorder, dup — so the decision
	// stream for packet k on a link is a pure function of (seed, link, k).
	action, holdNs, dup := "deliver", int64(0), false
	if in.cfg.Drop > 0 && l.next() < in.cfg.Drop {
		action = "drop"
	} else {
		if in.cfg.Delay > 0 && l.next() < in.cfg.Delay {
			action = "delay"
			holdNs = int64(l.next() * float64(in.cfg.DelayMax))
		}
		if in.cfg.Reorder > 0 && l.next() < in.cfg.Reorder {
			// Overtaking jitter: hold this packet long enough that the
			// link's subsequent sends can arrive first.
			action = "reorder"
			holdNs = int64((0.5 + 0.5*l.next()) * float64(in.cfg.DelayMax))
		}
		if in.cfg.Dup > 0 && l.next() < in.cfg.Dup {
			dup = true
		}
	}
	if in.cfg.LogEvents && len(in.events) < in.cfg.MaxLogEvents {
		in.events = append(in.events, Event{From: pkt.From, To: pkt.To, Idx: idx, Action: action, DelayNs: holdNs})
		if dup && len(in.events) < in.cfg.MaxLogEvents {
			in.events = append(in.events, Event{From: pkt.From, To: pkt.To, Idx: idx, Action: "dup"})
		}
	}

	switch action {
	case "drop":
		in.mu.Unlock()
		in.stats.dropped.Add(1)
		return
	case "delay", "reorder":
		if action == "delay" {
			in.stats.delayed.Add(1)
		} else {
			in.stats.reordered.Add(1)
		}
		in.enqueueLocked(pkt, time.Duration(holdNs))
		if dup {
			in.stats.duplicated.Add(1)
			in.enqueueLocked(pkt, time.Duration(holdNs))
		}
		in.mu.Unlock()
		return
	}
	in.mu.Unlock()
	in.deliverNow(pkt)
	if dup {
		in.stats.duplicated.Add(1)
		in.deliverNow(pkt)
	}
}

// enqueueLocked schedules pkt for future delivery; callers hold in.mu.
func (in *Injector) enqueueLocked(pkt Packet, hold time.Duration) {
	in.seq++
	heap.Push(&in.heap, delayedPacket{pkt: pkt, due: time.Now().Add(hold), seq: in.seq})
	select {
	case in.wake <- struct{}{}:
	default:
	}
}

func (in *Injector) deliverNow(pkt Packet) {
	if !in.Alive(pkt.To) {
		in.stats.crashDropped.Add(1)
		return
	}
	// A delayed packet is still "on the link": a partition window that
	// opens while it is in flight severs it.
	if in.partitioned(pkt.From, pkt.To, time.Now()) {
		in.stats.partitionDropped.Add(1)
		return
	}
	in.stats.delivered.Add(1)
	in.deliver(pkt)
}

// scheduler drains the delay heap in due order on one goroutine.
func (in *Injector) scheduler() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		in.mu.Lock()
		if in.closed {
			in.mu.Unlock()
			return
		}
		var wait time.Duration = time.Hour
		now := time.Now()
		for len(in.heap) > 0 {
			next := in.heap.peek()
			if next.due.After(now) {
				wait = next.due.Sub(now)
				break
			}
			heap.Pop(&in.heap)
			in.mu.Unlock()
			in.deliverNow(next.pkt)
			in.mu.Lock()
			now = time.Now()
		}
		in.mu.Unlock()

		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-in.wake:
		case <-timer.C:
		case <-in.done:
			return
		}
	}
}

func (in *Injector) Close() {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return
	}
	in.closed = true
	in.heap = nil
	in.mu.Unlock()
	close(in.done)
	for _, t := range in.timers {
		t.Stop()
	}
}

func (in *Injector) Stats() Stats {
	return Stats{
		Sent:         in.stats.sent.Load(),
		Delivered:    in.stats.delivered.Load(),
		Dropped:      in.stats.dropped.Load(),
		Duplicated:   in.stats.duplicated.Load(),
		Delayed:      in.stats.delayed.Load(),
		Reordered:    in.stats.reordered.Load(),
		CrashDropped: in.stats.crashDropped.Load(),

		PartitionDropped: in.stats.partitionDropped.Load(),
	}
}

// Events returns a copy of the recorded decision log, sorted by
// (from, to, idx) — a canonical order independent of goroutine
// interleaving between links.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	out := make([]Event, len(in.events))
	copy(out, in.events)
	in.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Idx != b.Idx {
			return a.Idx < b.Idx
		}
		return a.Action < b.Action
	})
	return out
}

// WriteLog writes the canonical event log, one decision per line. Two
// runs with the same seed and the same per-link send counts produce
// byte-for-byte identical output.
func (in *Injector) WriteLog(w io.Writer) error {
	for _, e := range in.Events() {
		if _, err := fmt.Fprintf(w, "%d>%d #%d %s %d\n", e.From, e.To, e.Idx, e.Action, e.DelayNs); err != nil {
			return err
		}
	}
	return nil
}
