// Package transport is the real-socket realization of the
// faultnet.Network interface: length-prefixed frames over TCP, one
// ordered stream per destination process, reconnect with exponential
// backoff. It exists so the shard tier (internal/shard) can put a
// coordinator and its workers in separate processes, and so the ring
// code built against faultnet runs unchanged whether its network is a
// kernel socket or the seeded chaos injector of its tests.
//
// Semantics, deliberately weaker than TCP's:
//
//   - Send never blocks. Each peer has a bounded outbound queue drained
//     by one writer goroutine; when the peer is unreachable (dialing,
//     backing off, queue full) packets are DROPPED and counted, not
//     buffered without bound. The transport is honest about being a
//     lossy network — reliability is the caller's job (the shard ring's
//     heartbeats, liveness sweeps and task reissue), which is exactly
//     what lets the chaos-hardened ring run over it without
//     modification.
//   - Per-link FIFO between two live endpoints: one TCP stream per
//     destination process, so packets that are not dropped arrive in
//     send order. A reconnect may lose the packets in flight around the
//     break; ordering restarts on the new stream.
//   - No failure detector: StalledUntil never reports a stall, and
//     crash semantics come from the caller's own heartbeats.
//
// Payloads cross as bytes via a caller-supplied Codec; the transport
// never interprets them.
package transport

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gametree/internal/faultnet"
)

// Codec translates packet payloads to and from wire bytes. Encode is
// called on the sender's goroutine and must be safe for concurrent use;
// Decode runs on reader goroutines.
type Codec interface {
	Encode(payload any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// Bytes is the trivial codec for callers whose payloads already are
// byte slices.
type Bytes struct{}

func (Bytes) Encode(payload any) ([]byte, error) {
	b, ok := payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("transport: Bytes codec got %T, want []byte", payload)
	}
	return b, nil
}

func (Bytes) Decode(data []byte) (any, error) {
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// Config parameterizes a TCP transport. Zero values take the defaults
// noted on each field.
type Config struct {
	// Listen is the address to accept peer connections on
	// ("127.0.0.1:0" binds an ephemeral port; read it back with Addr).
	// Empty means send-only: no listener, inbound delivery only via
	// loopback sends.
	Listen string
	// Local is the set of processor ids hosted by this transport:
	// packets addressed to them are delivered here.
	Local []int
	// Peers maps remote processor ids to their transport addresses.
	// Multiple processors may share one address (one process hosting
	// several procs shares one stream). SetPeer adds or moves entries
	// later — the shard tier uses that for portfile-discovered and
	// hello-announced addresses.
	Peers map[int]string
	// Codec encodes payloads; required.
	Codec Codec
	// Loopback forces packets addressed to local processors through the
	// listener socket instead of the in-process fast path, so
	// single-process tests exercise real frames, real buffers and real
	// kernel scheduling on every hop.
	Loopback bool
	// QueueLen bounds each peer's outbound queue (default 1024).
	QueueLen int
	// DialBackoff and DialBackoffMax shape reconnect pacing: the first
	// redial waits DialBackoff, doubling per failure up to
	// DialBackoffMax (defaults 20ms and 1s).
	DialBackoff    time.Duration
	DialBackoffMax time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	if c.DialBackoff <= 0 {
		c.DialBackoff = 20 * time.Millisecond
	}
	if c.DialBackoffMax <= 0 {
		c.DialBackoffMax = time.Second
	}
	return c
}

// peer is one outbound stream: a bounded queue of encoded frames and
// the writer goroutine that owns the connection to addr.
type peer struct {
	addr  string
	queue chan []byte
	done  chan struct{}

	mu     sync.Mutex
	conn   net.Conn // active connection, for shutdown to sever
	closed bool
}

// setConn records the writer's active connection so shutdown can close
// it out from under a blocked Write. A set that loses the race with
// shutdown closes the connection immediately.
func (p *peer) setConn(c net.Conn) {
	p.mu.Lock()
	if p.closed && c != nil {
		c.Close()
	}
	p.conn = c
	p.mu.Unlock()
}

// shutdown severs the active connection (if any) so the writer's
// blocking Write or redial wait cannot outlive Close.
func (p *peer) shutdown() {
	p.mu.Lock()
	p.closed = true
	if p.conn != nil {
		p.conn.Close()
	}
	p.mu.Unlock()
}

// TCP is the socket transport. Construct with New (which binds the
// listener so Addr is known immediately), install the delivery callback
// with Start, then Send freely from any goroutine.
type TCP struct {
	cfg     Config
	ln      net.Listener
	deliver atomic.Value // func(faultnet.Packet)
	local   map[int]bool

	mu     sync.Mutex
	peers  map[string]*peer  // keyed by address: procs sharing an address share a stream
	route  map[int]string    // proc id -> address
	conns  map[net.Conn]bool // inbound connections, severed on Close
	closed bool

	self *peer // loopback stream to our own listener, lazily created

	// instance is this transport's random boot identity, announced in a
	// preamble frame on every inbound connection; instances remembers the
	// last identity seen behind each dialed address (guarded by mu), and
	// restart fires when an address answers with a fresh one.
	instance  uint64
	instances map[string]uint64
	restart   atomic.Value // func(addr string, oldID, newID uint64)

	wg sync.WaitGroup

	stats struct {
		sent, delivered, dropped atomic.Int64
	}
}

// New builds the transport and binds its listener (when cfg.Listen is
// set). No traffic flows until Start installs the delivery callback,
// but inbound connections are accepted and parked from here on.
func New(cfg Config) (*TCP, error) {
	cfg = cfg.withDefaults()
	if cfg.Codec == nil {
		return nil, fmt.Errorf("transport: Config.Codec is required")
	}
	t := &TCP{
		cfg:       cfg,
		local:     make(map[int]bool, len(cfg.Local)),
		peers:     make(map[string]*peer),
		route:     make(map[int]string, len(cfg.Peers)),
		conns:     make(map[net.Conn]bool),
		instance:  randInstance(),
		instances: make(map[string]uint64),
	}
	for _, p := range cfg.Local {
		t.local[p] = true
	}
	for proc, addr := range cfg.Peers {
		t.route[proc] = addr
	}
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
		}
		t.ln = ln
		t.wg.Add(1)
		go t.acceptLoop()
	}
	return t, nil
}

// Addr returns the bound listener address ("" when send-only).
func (t *TCP) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// Instance returns this transport's random boot identity. A fresh
// process at the same address has a fresh instance, which is what the
// restart handler keys on.
func (t *TCP) Instance() uint64 { return t.instance }

// SetRestartHandler installs a callback fired (on its own goroutine)
// when a dialed address answers with a different instance identity than
// it did before — i.e. the process behind that address restarted. The
// first connection to an address never fires it; nor does a plain
// reconnect to a surviving process. The handler must be safe to call
// concurrently. Only fixed-address restarts are observable this way: a
// process that restarts on a new ephemeral port is a new address, and
// detecting it is the caller's job (the shard tier uses boot nonces in
// its ping protocol for that).
func (t *TCP) SetRestartHandler(fn func(addr string, oldID, newID uint64)) {
	t.restart.Store(fn)
}

// randInstance draws a nonzero random identity; zero means "unknown".
func randInstance() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano()) | 1
	}
	return binary.BigEndian.Uint64(b[:]) | 1
}

// notePeerInstance records the identity an address announced and fires
// the restart handler when it changed.
func (t *TCP) notePeerInstance(addr string, inst uint64) {
	if inst == 0 {
		return
	}
	t.mu.Lock()
	old, seen := t.instances[addr]
	t.instances[addr] = inst
	t.mu.Unlock()
	if !seen || old == inst {
		return
	}
	if fn, _ := t.restart.Load().(func(string, uint64, uint64)); fn != nil {
		go fn(addr, old, inst)
	}
}

// SetPeer binds (or rebinds) a processor id to a transport address.
// Subsequent Sends to proc use the new route; an existing stream to the
// old address keeps serving procs still routed there.
func (t *TCP) SetPeer(proc int, addr string) {
	t.mu.Lock()
	t.route[proc] = addr
	t.mu.Unlock()
}

// Peer reports the currently routed address of proc ("" when unknown).
func (t *TCP) Peer(proc int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.route[proc]
}

// Start installs the delivery callback. Packets arriving before Start
// are dropped (the accept loop is already running so early dials are
// not refused, but there is no one to hand their frames to yet).
func (t *TCP) Start(deliver func(faultnet.Packet)) {
	t.deliver.Store(deliver)
}

// Send routes pkt toward its destination: inline delivery for local
// destinations (unless Loopback), otherwise onto the destination's
// stream queue. Never blocks; unroutable or overflowing packets are
// dropped and counted.
func (t *TCP) Send(pkt faultnet.Packet) {
	t.stats.sent.Add(1)
	if t.local[pkt.To] && !t.cfg.Loopback {
		t.handOff(pkt)
		return
	}

	body, err := t.cfg.Codec.Encode(pkt.Payload)
	if err != nil || headerLen+len(body) > MaxFrame {
		t.stats.dropped.Add(1)
		return
	}
	frame := appendFrame(make([]byte, 0, 4+headerLen+len(body)), pkt.From, pkt.To, body)

	p := t.peerFor(pkt.To)
	if p == nil {
		t.stats.dropped.Add(1)
		return
	}
	select {
	case p.queue <- frame:
	default:
		t.stats.dropped.Add(1) // queue full: lossy by contract
	}
}

// peerFor resolves the outbound stream for a destination, creating the
// writer lazily. Local destinations under Loopback go to a stream
// dialing our own listener.
func (t *TCP) peerFor(to int) *peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	var addr string
	if t.local[to] {
		if t.ln == nil {
			return nil
		}
		addr = t.ln.Addr().String()
	} else {
		addr = t.route[to]
		if addr == "" {
			return nil
		}
	}
	p := t.peers[addr]
	if p == nil {
		p = &peer{addr: addr, queue: make(chan []byte, t.cfg.QueueLen), done: make(chan struct{})}
		t.peers[addr] = p
		t.wg.Add(1)
		go t.writeLoop(p)
	}
	return p
}

// writeLoop owns one outbound connection: dial with backoff, drain the
// queue, reconnect on error. A frame that fails to write is dropped —
// it may be half on the wire, so resending it on the new stream could
// deliver a duplicate the caller never sent.
func (t *TCP) writeLoop(p *peer) {
	defer t.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	backoff := t.cfg.DialBackoff
	for {
		var frame []byte
		select {
		case <-p.done:
			return
		case frame = <-p.queue:
		}
		for conn == nil {
			c, err := net.DialTimeout("tcp", p.addr, t.cfg.DialBackoffMax)
			if err == nil {
				conn = c
				p.setConn(c)
				backoff = t.cfg.DialBackoff
				t.readPreamble(c, p.addr)
				break
			}
			// Unreachable: drop this frame, sleep out the backoff while
			// shedding whatever else accumulates, then retry the dial.
			t.stats.dropped.Add(1)
			select {
			case <-p.done:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > t.cfg.DialBackoffMax {
				backoff = t.cfg.DialBackoffMax
			}
			select {
			case frame = <-p.queue:
			default:
				frame = nil
			}
			if frame == nil {
				break
			}
		}
		if conn == nil || frame == nil {
			continue
		}
		if _, err := conn.Write(frame); err != nil {
			conn.Close()
			conn = nil
			p.setConn(nil)
			t.stats.dropped.Add(1) // possibly torn mid-frame; caller retransmits
		}
	}
}

// acceptLoop hands each inbound connection to a reader.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = true
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

// writePreamble announces this transport's instance identity down an
// inbound connection, so the dialer on the other end can tell a fresh
// process from a reconnect to the old one.
func (t *TCP) writePreamble(conn net.Conn) error {
	var body [8]byte
	binary.BigEndian.PutUint64(body[:], t.instance)
	frame := appendFrame(make([]byte, 0, 4+headerLen+8), instanceProc, instanceProc, body[:])
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	_, err := conn.Write(frame)
	conn.SetWriteDeadline(time.Time{})
	return err
}

// readPreamble consumes the acceptor's identity announcement after a
// dial. Tolerant by design: a slow or foreign endpoint just leaves the
// identity unknown — the stream is unidirectional after the preamble,
// so nothing else can arrive here and be lost.
func (t *TCP) readPreamble(conn net.Conn, addr string) {
	conn.SetReadDeadline(time.Now().Add(t.cfg.DialBackoffMax))
	body, err := readFrame(conn, nil)
	conn.SetReadDeadline(time.Time{})
	if err != nil || len(body) < headerLen+8 {
		return
	}
	if from := int(int32(binary.BigEndian.Uint32(body))); from != instanceProc {
		return
	}
	t.notePeerInstance(addr, binary.BigEndian.Uint64(body[headerLen:]))
}

// readLoop decodes frames off one inbound stream and delivers the ones
// addressed to local processors.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	if t.writePreamble(conn) != nil {
		return
	}
	// Buffered, a frame's length prefix and body usually come out of one
	// read syscall instead of two. Only this loop reads the inbound
	// stream, so no buffered byte can be stranded; the dialer side
	// reads just the preamble, on the raw conn (readPreamble).
	r := bufio.NewReader(conn)
	var buf []byte
	for {
		body, err := readFrame(r, buf)
		if err != nil {
			return // EOF, reset, or a corrupt stream: drop the conn
		}
		buf = body[:0]
		pkt, err := decodeBody(body, t.cfg.Codec)
		if err != nil {
			return // undecodable payload: the stream cannot be trusted
		}
		t.handOff(pkt)
	}
}

// handOff delivers one packet to the installed callback if it is
// addressed to a local processor.
func (t *TCP) handOff(pkt faultnet.Packet) {
	if !t.local[pkt.To] {
		t.stats.dropped.Add(1)
		return
	}
	deliver, _ := t.deliver.Load().(func(faultnet.Packet))
	if deliver == nil {
		t.stats.dropped.Add(1)
		return
	}
	t.stats.delivered.Add(1)
	deliver(pkt)
}

// StalledUntil never reports a stall: a raw socket transport has no
// failure detector. Death detection is the shard ring's job (heartbeats
// and liveness sweeps).
func (t *TCP) StalledUntil(int) (time.Time, bool) { return time.Time{}, false }

// Close stops the listener, the readers and every peer writer. Pending
// queued frames are discarded.
func (t *TCP) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	peers := t.peers
	t.peers = map[string]*peer{}
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	if t.ln != nil {
		t.ln.Close()
	}
	for _, p := range peers {
		close(p.done)
		p.shutdown()
	}
	for _, c := range conns {
		c.Close() // unblock readers parked in ReadFull
	}
	t.wg.Wait()
}

// Stats reports the traffic counters. Dropped folds together every loss
// mode the transport has: no route, queue overflow, dial failure, write
// error, encode error, and delivery before Start.
func (t *TCP) Stats() faultnet.Stats {
	return faultnet.Stats{
		Sent:      t.stats.sent.Load(),
		Delivered: t.stats.delivered.Load(),
		Dropped:   t.stats.dropped.Load(),
	}
}
