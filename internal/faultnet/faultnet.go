// Package faultnet is the pluggable message network under the shard
// ring (internal/shard): the coordinator and its workers talk only
// through a Network, so the same ring code runs over real TCP
// (internal/transport) in production and over a seeded fault injector in
// its chaos tests. The ring's own protocol — heartbeats, liveness
// sweeps, epoch fencing and task reissue — is what turns a lossy network
// into exact answers; this package supplies the losses:
//
//   - Injector: a deterministic, seeded fault injector with per-link drop
//     probability, bounded random delay, duplication, reordering (as
//     overtaking jitter), scheduled link partitions, and a schedule of
//     processor crash and stall events.
//
// Determinism discipline: every fault decision for the k'th packet on a
// link (from→to) is drawn from a PRNG stream keyed only by (seed, from,
// to) and the link-local index k. Goroutine interleaving can change which
// *message* is the k'th on a link, but never what happens to it, and the
// injector's event log — the per-link decision stream — is reproducible
// byte-for-byte for a fixed send sequence (see WriteLog).
package faultnet

import (
	"fmt"
	"time"
)

// Packet is one datagram: an opaque payload routed from one processor to
// another. Processor ids are small non-negative integers; id -1 is the
// run coordinator/monitor, which never crashes or stalls.
type Packet struct {
	From, To int
	Payload  any
}

// Network routes packets between processors. Implementations must make
// Send non-blocking and safe from any goroutine; delivery happens on an
// unspecified goroutine via the callback installed by Start.
type Network interface {
	// Start installs the delivery callback. It must be called exactly once
	// before the first Send. The callback must not block.
	Start(deliver func(Packet))
	// Send routes pkt toward its destination. The network may drop, delay,
	// duplicate or reorder it, and drops traffic from or to crashed
	// processors.
	Send(pkt Packet)
	// StalledUntil reports whether the processor is currently frozen by a
	// stall event and, if so, when the stall ends.
	StalledUntil(proc int) (time.Time, bool)
	// Close stops delivery; pending delayed packets are discarded.
	Close()
	// Stats returns the cumulative traffic counters.
	Stats() Stats
}

// Stats counts what the network did to the traffic it carried.
type Stats struct {
	Sent         int64 `json:"sent"`          // Send calls accepted
	Delivered    int64 `json:"delivered"`     // packets handed to the delivery callback
	Dropped      int64 `json:"dropped"`       // lost to the per-link drop probability
	Duplicated   int64 `json:"duplicated"`    // extra copies created
	Delayed      int64 `json:"delayed"`       // packets held back before delivery
	Reordered    int64 `json:"reordered"`     // packets given overtaking jitter
	CrashDropped int64 `json:"crash_dropped"` // lost because an endpoint had crashed

	PartitionDropped int64 `json:"partition_dropped,omitempty"` // lost inside a scheduled link partition window
}

func (s Stats) String() string {
	return fmt.Sprintf("sent=%d delivered=%d dropped=%d duplicated=%d delayed=%d reordered=%d crash_dropped=%d partition_dropped=%d",
		s.Sent, s.Delivered, s.Dropped, s.Duplicated, s.Delayed, s.Reordered, s.CrashDropped, s.PartitionDropped)
}
