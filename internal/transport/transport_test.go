package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gametree/internal/faultnet"
)

// collector gathers delivered packets with a broadcast for waiters.
type collector struct {
	mu   sync.Mutex
	pkts []faultnet.Packet
}

func (c *collector) deliver(pkt faultnet.Packet) {
	c.mu.Lock()
	c.pkts = append(c.pkts, pkt)
	c.mu.Unlock()
}

func (c *collector) snapshot() []faultnet.Packet {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]faultnet.Packet, len(c.pkts))
	copy(out, c.pkts)
	return out
}

// waitFor polls until cond sees the collected packets or the deadline
// passes.
func (c *collector) waitFor(t *testing.T, timeout time.Duration, cond func([]faultnet.Packet) bool) []faultnet.Packet {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		got := c.snapshot()
		if cond(got) {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for packets; have %d: %v", len(got), got)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func newTCP(t *testing.T, cfg Config) *TCP {
	t.Helper()
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Codec == nil {
		cfg.Codec = Bytes{}
	}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

// TestTwoProcessExchange is the basic topology: two transports, each
// hosting one processor, exchanging byte payloads over real sockets.
func TestTwoProcessExchange(t *testing.T) {
	a := newTCP(t, Config{Local: []int{0}})
	b := newTCP(t, Config{Local: []int{1}, Peers: map[int]string{0: a.Addr()}})
	a.SetPeer(1, b.Addr())

	var ca, cb collector
	a.Start(ca.deliver)
	b.Start(cb.deliver)

	a.Send(faultnet.Packet{From: 0, To: 1, Payload: []byte("ping")})
	got := cb.waitFor(t, 5*time.Second, func(p []faultnet.Packet) bool { return len(p) == 1 })
	if string(got[0].Payload.([]byte)) != "ping" || got[0].From != 0 || got[0].To != 1 {
		t.Fatalf("b received %+v", got[0])
	}

	b.Send(faultnet.Packet{From: 1, To: 0, Payload: []byte("pong")})
	got = ca.waitFor(t, 5*time.Second, func(p []faultnet.Packet) bool { return len(p) == 1 })
	if string(got[0].Payload.([]byte)) != "pong" {
		t.Fatalf("a received %+v", got[0])
	}
}

// TestLoopbackOrdering sends a burst to a local processor with Loopback
// forced: every packet must cross the socket and arrive in send order
// (one stream per destination = per-link FIFO).
func TestLoopbackOrdering(t *testing.T) {
	tr := newTCP(t, Config{Local: []int{0, 1}, Loopback: true})
	var c collector
	tr.Start(c.deliver)

	const n = 500
	for i := 0; i < n; i++ {
		tr.Send(faultnet.Packet{From: 0, To: 1, Payload: []byte(fmt.Sprintf("m%04d", i))})
	}
	got := c.waitFor(t, 10*time.Second, func(p []faultnet.Packet) bool { return len(p) == n })
	for i, pkt := range got {
		if want := fmt.Sprintf("m%04d", i); string(pkt.Payload.([]byte)) != want {
			t.Fatalf("packet %d: got %q, want %q (reordered on one stream)", i, pkt.Payload, want)
		}
	}
	if s := tr.Stats(); s.Delivered != n {
		t.Fatalf("stats: %+v, want delivered=%d", s, n)
	}
}

// TestReconnectAfterPeerRestart kills the receiving transport,
// re-binds a fresh one on a new port, repoints the route, and requires
// delivery to resume — the writer must shed the dead-peer traffic and
// redial rather than wedge.
func TestReconnectAfterPeerRestart(t *testing.T) {
	a := newTCP(t, Config{Local: []int{0}, DialBackoff: 5 * time.Millisecond, DialBackoffMax: 50 * time.Millisecond})
	b1 := newTCP(t, Config{Local: []int{1}})
	a.SetPeer(1, b1.Addr())
	var c1 collector
	a.Start(func(faultnet.Packet) {})
	b1.Start(c1.deliver)

	a.Send(faultnet.Packet{From: 0, To: 1, Payload: []byte("before")})
	c1.waitFor(t, 5*time.Second, func(p []faultnet.Packet) bool { return len(p) == 1 })

	b1.Close()

	// Sends into the dead peer must not block; they drop or queue.
	for i := 0; i < 50; i++ {
		a.Send(faultnet.Packet{From: 0, To: 1, Payload: []byte("void")})
		time.Sleep(time.Millisecond)
	}

	b2 := newTCP(t, Config{Local: []int{1}})
	var c2 collector
	b2.Start(c2.deliver)
	a.SetPeer(1, b2.Addr())

	// The old route's writer keeps redialing the dead address; the new
	// route gets a fresh stream. Keep sending until one lands.
	deadline := time.Now().Add(10 * time.Second)
	for {
		a.Send(faultnet.Packet{From: 0, To: 1, Payload: []byte("after")})
		got := c2.snapshot()
		if len(got) > 0 {
			if string(got[0].Payload.([]byte)) != "after" {
				t.Fatalf("post-restart packet: %+v", got[0])
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("delivery never resumed after peer restart")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRestartSignal: a dialed address that answers with a fresh
// instance identity — a new process on the old port — must fire the
// restart handler exactly once, with the old and new identities; the
// first connection to an address must not.
func TestRestartSignal(t *testing.T) {
	type restart struct {
		addr     string
		old, new uint64
	}
	restarts := make(chan restart, 4)

	a := newTCP(t, Config{Local: []int{0}, DialBackoff: 5 * time.Millisecond, DialBackoffMax: 200 * time.Millisecond})
	a.SetRestartHandler(func(addr string, oldID, newID uint64) {
		restarts <- restart{addr: addr, old: oldID, new: newID}
	})
	a.Start(func(faultnet.Packet) {})

	b1 := newTCP(t, Config{Local: []int{1}})
	addr := b1.Addr()
	a.SetPeer(1, addr)
	var c1 collector
	b1.Start(c1.deliver)

	a.Send(faultnet.Packet{From: 0, To: 1, Payload: []byte("hello")})
	c1.waitFor(t, 5*time.Second, func(p []faultnet.Packet) bool { return len(p) == 1 })
	select {
	case r := <-restarts:
		t.Fatalf("restart fired on first connection: %+v", r)
	default:
	}

	// Kill b1 and rebind a fresh transport on the very same port — the
	// fixed-address restart the shard portfile deployment produces.
	b1.Close()
	var b2 *TCP
	var err error
	for i := 0; i < 50; i++ {
		b2, err = New(Config{Listen: addr, Local: []int{1}, Codec: Bytes{}})
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond) // port briefly held by the old listener
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	t.Cleanup(b2.Close)
	var c2 collector
	b2.Start(c2.deliver)

	// Keep sending until the redial lands on the new process.
	deadline := time.Now().Add(10 * time.Second)
	for len(c2.snapshot()) == 0 {
		a.Send(faultnet.Packet{From: 0, To: 1, Payload: []byte("again")})
		if time.Now().After(deadline) {
			t.Fatal("delivery never resumed on the rebound address")
		}
		time.Sleep(5 * time.Millisecond)
	}

	select {
	case r := <-restarts:
		if r.addr != addr {
			t.Errorf("restart for %q, want %q", r.addr, addr)
		}
		if r.old != b1.Instance() || r.new != b2.Instance() {
			t.Errorf("restart identities (%x -> %x), want (%x -> %x)", r.old, r.new, b1.Instance(), b2.Instance())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("restart handler never fired for the fresh process")
	}
}

// TestUnroutableDrops pins the lossy contract: no route, no listener,
// no panic — just counted drops.
func TestUnroutableDrops(t *testing.T) {
	tr := newTCP(t, Config{Local: []int{0}})
	tr.Start(func(faultnet.Packet) {})
	for i := 0; i < 10; i++ {
		tr.Send(faultnet.Packet{From: 0, To: 99, Payload: []byte("x")})
	}
	if s := tr.Stats(); s.Dropped != 10 || s.Sent != 10 {
		t.Fatalf("stats: %+v, want sent=10 dropped=10", s)
	}
}
