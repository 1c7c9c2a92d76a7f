package shard

// The shard tier's wire protocol: a single JSON envelope for every
// message kind, carried as transport payloads via Codec. JSON (rather
// than a hand-packed binary layout) because shard messages are low-rate
// — tasks, results and liveness, not per-node search messages — and the
// operational win of being able to read a capture with jq outweighs the
// bytes. Codec.Decode is the only payload decoder that reads socket
// bytes, so FuzzEnvelopeCodec holds it to never panicking and to
// round-tripping whatever it accepts.

import (
	"encoding/json"
	"fmt"
	"math"
)

// Message kinds.
const (
	// KindHello is coordinator → worker: carries the membership epoch
	// and the peer address table, from which a worker started without
	// peer addresses learns where the coordinator is, and doubles as the
	// coordinator's own liveness beacon. Sent at startup and
	// periodically.
	KindHello = "hello"
	// KindTask is coordinator → worker: search Pos (canonical, in Game)
	// to Depth on the window (Alpha, Beta) and reply with a result
	// carrying the same ID. A task with Plies expands that many plies
	// and cascades them at the worker.
	KindTask = "task"
	// KindResult is worker → coordinator: the fail-soft value of a task
	// on its window — exact inside it, a bound at or beyond either side.
	KindResult = "result"
	// KindPing is worker → coordinator liveness.
	KindPing = "ping"
)

// Envelope is the one message shape of the shard protocol; Kind selects
// which fields matter. Zero fields marshal away.
type Envelope struct {
	Kind string `json:"kind"`

	// Task identity and definition (task/result).
	ID    uint64 `json:"id,omitempty"`
	Game  string `json:"game,omitempty"`
	Pos   string `json:"pos,omitempty"`
	Depth int    `json:"depth,omitempty"`
	// Alpha and Beta are a task's open search window; a nil side is
	// open, so a task without them asks for the exact value. The
	// coordinator sends the eldest child of a node on the node's window
	// and its younger brothers on the window the eldest narrowed.
	Alpha *int32 `json:"alpha,omitempty"`
	Beta  *int32 `json:"beta,omitempty"`
	// Plies is how many plies the worker expands the task before it
	// searches the frontier, folding them by the cascade: a busy ring's
	// whole request. Zero (and absent, as in older frames) is one plain
	// windowed search.
	Plies int `json:"plies,omitempty"`

	// Result payload (result).
	Value int32  `json:"value,omitempty"`
	Best  int    `json:"best,omitempty"`
	Nodes int64  `json:"nodes,omitempty"`
	Err   string `json:"err,omitempty"`

	// Topology (hello): processor id → transport address.
	Peers map[string]string `json:"peers,omitempty"`

	// SentNs is the sender's clock at send time, echoed back in replies
	// so the originator can observe round-trip latency without clock
	// agreement between processes.
	SentNs int64 `json:"sent_ns,omitempty"`

	// EchoNs echoes the SentNs of the message being answered (a worker's
	// ping echoing the coordinator's hello). Paired with the answerer's
	// own SentNs it gives the receiver an NTP-style RTT and clock-offset
	// sample without any clock agreement.
	EchoNs int64 `json:"echo_ns,omitempty"`

	// Trace is the request-scoped trace ID (task/result); empty means the
	// originating request is unsampled. Reissued copies keep the original
	// ID so a task's whole retry history lands in one trace.
	Trace string `json:"trace,omitempty"`

	// Epoch is the coordinator's membership epoch (hello/task/result).
	// Tasks carry the epoch they were issued under; workers echo the
	// epoch of the latest issuance they saw for that task ID; a result
	// stamped below the task's current issue epoch is fenced off —
	// discarded, never folded. Zero means "no epoch" (pre-epoch traffic)
	// and is never fenced.
	Epoch uint64 `json:"epoch,omitempty"`

	// Boot is the sender's random per-process boot nonce (ping). A ping
	// whose Boot differs from the last one seen for that processor is a
	// restarted process, even when it reappears inside the DeadAfter
	// window.
	Boot uint64 `json:"boot,omitempty"`

	// Addr is the sender's advertised transport address (ping), so a
	// worker restarted on a fresh port can be re-routed to without a
	// portfile round trip.
	Addr string `json:"addr,omitempty"`
}

// inf is the window's open side, the engine's own infinity. It is
// symmetric so a window negates without overflow.
const inf = math.MaxInt32

// window returns the task's window, with an open side as ±inf.
func (e *Envelope) window() (alpha, beta int32) {
	alpha, beta = -inf, inf
	if e.Alpha != nil {
		alpha = *e.Alpha
	}
	if e.Beta != nil {
		beta = *e.Beta
	}
	return alpha, beta
}

// setWindow stores (alpha, beta) on the envelope, leaving ±inf sides nil.
func (e *Envelope) setWindow(alpha, beta int32) {
	e.Alpha, e.Beta = nil, nil
	if alpha > -inf {
		e.Alpha = &alpha
	}
	if beta < inf {
		e.Beta = &beta
	}
}

// Codec marshals *Envelope payloads for the transport. Implements
// transport.Codec structurally.
type Codec struct{}

// Encode marshals an *Envelope.
func (Codec) Encode(payload any) ([]byte, error) {
	e, ok := payload.(*Envelope)
	if !ok {
		return nil, fmt.Errorf("shard: codec got %T, want *Envelope", payload)
	}
	return json.Marshal(e)
}

// Decode unmarshals an *Envelope, rejecting malformed or unknown-kind
// frames, tasks whose window is empty, and tasks whose Plies is negative
// or exceeds their Depth, so garbage off the wire never reaches the
// dispatch switch nor makes a worker expand without bound.
func (Codec) Decode(data []byte) (any, error) {
	var e Envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("shard: bad envelope: %w", err)
	}
	switch e.Kind {
	case KindTask:
		if alpha, beta := e.window(); alpha >= beta {
			return nil, fmt.Errorf("shard: task %d has an empty window (%d, %d)", e.ID, alpha, beta)
		}
		if e.Plies < 0 || e.Plies > e.Depth {
			return nil, fmt.Errorf("shard: task %d expands %d plies of depth %d", e.ID, e.Plies, e.Depth)
		}
		return &e, nil
	case KindHello, KindResult, KindPing:
		return &e, nil
	}
	return nil, fmt.Errorf("shard: unknown envelope kind %q", e.Kind)
}
