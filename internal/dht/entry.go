// Package dht implements the structured overlay underlying the resource
// pool: a consistent-hashing ring (Section 3.1 of the paper) where each
// node owns the zone (pred, self], keeps a leafset of r neighbors to
// each side, exchanges heartbeats to maintain the ring under churn, and
// routes messages to the owner of any key. Finger pointers give
// O(log N) lookups on top of the base ring.
//
// The node is written as a single-threaded state machine over a
// transport.Network: all behaviour is driven by OnMessage and timer
// callbacks, so the same code runs deterministically under the event
// simulator and live on goroutines.
package dht

import (
	"fmt"

	"p2ppool/internal/eventsim"
	"p2ppool/internal/ids"
	"p2ppool/internal/transport"
)

// Entry names a node: its logical ID and transport address.
type Entry struct {
	ID   ids.ID
	Addr transport.Addr
}

// NoEntry is the sentinel for "no such node".
var NoEntry = Entry{Addr: transport.NoAddr}

// IsZero reports whether the entry is the sentinel.
func (e Entry) IsZero() bool { return e.Addr == transport.NoAddr }

// String renders the entry compactly.
func (e Entry) String() string {
	if e.IsZero() {
		return "<none>"
	}
	return fmt.Sprintf("%s@%d", e.ID, e.Addr)
}

// Config tunes a node's protocol behaviour. Zero fields are replaced by
// the defaults in withDefaults.
type Config struct {
	// LeafsetRadius is the number of neighbors kept on each side of the
	// ring (Pastry's default leafset of 32 corresponds to radius 16).
	LeafsetRadius int
	// HeartbeatInterval is the period of leafset heartbeats.
	HeartbeatInterval eventsim.Time
	// FailureTimeout is how long without hearing from a leafset member
	// before the node declares it dead and repairs (default
	// failureTimeoutPerHeartbeat heartbeats).
	FailureTimeout eventsim.Time
	// MaxHops caps routing path length as a safety valve.
	MaxHops int
	// Fingers is the number of finger pointers; 0 means the default and
	// a negative value disables finger routing entirely (leafset-only,
	// O(N) lookups).
	Fingers int
	// FixFingersInterval is the period of finger refresh.
	FixFingersInterval eventsim.Time
}

// heartbeatBytes is the nominal wire size of a heartbeat message; the
// paper's LiquidEye uses 40-byte leaf reports.
const heartbeatBytes = 40

// The derived defaults: each timer is a fixed ratio of the one it is
// tuned against, so scaling a base scales everything that follows it.
const (
	// Four missed heartbeats declare a neighbour dead.
	failureTimeoutPerHeartbeat = 4
	// A declared failure may be a partition (or a crash followed by a
	// restart): re-probing the suspect this long lets two healed halves
	// rediscover each other, since each side gossips only its survivors.
	suspectTTLPerFailureTimeout = 30
	// Evidence of life counts this long for a finger probe: a target
	// last heard longer ago when its probe expires is silent, however
	// late the expiry check runs.
	contactMemoryPerFailureTimeout = 8
	// A departed node is kept out this long, so stale gossip cannot
	// re-add it before every neighbour has noticed it gone.
	tombstonePerFailureTimeout = 2
)

func (c Config) suspectTTL() eventsim.Time {
	return suspectTTLPerFailureTimeout * c.FailureTimeout
}

func (c Config) contactMemory() eventsim.Time {
	return contactMemoryPerFailureTimeout * c.FailureTimeout
}

func (c Config) tombstone() eventsim.Time {
	return tombstonePerFailureTimeout * c.FailureTimeout
}

func (c Config) withDefaults() Config {
	if c.LeafsetRadius <= 0 {
		c.LeafsetRadius = 16
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = eventsim.Second
	}
	if c.MaxHops <= 0 {
		c.MaxHops = 128
	}
	if c.Fingers == 0 {
		c.Fingers = 24
	} else if c.Fingers < 0 {
		c.Fingers = 0
	}
	if c.FixFingersInterval <= 0 {
		c.FixFingersInterval = 10 * eventsim.Second
	}
	if c.FailureTimeout <= 0 {
		c.FailureTimeout = failureTimeoutPerHeartbeat * c.HeartbeatInterval
	}
	return c
}

// Gossip is implemented by subsystems that piggyback state on leafset
// heartbeats (network coordinates in Section 4.1, bandwidth reports in
// Section 4.2, degree tables in Section 5.3).
type Gossip interface {
	// HeartbeatPayload returns the data to attach to a heartbeat (or
	// ack) destined for peer; nil attaches nothing.
	HeartbeatPayload(peer Entry) interface{}
	// OnHeartbeat processes the payload attached by peer, along with
	// the round-trip time measured by this heartbeat exchange (rtt < 0
	// when no fresh measurement is available, i.e. on the request leg).
	OnHeartbeat(peer Entry, rtt float64, payload interface{})
}

// RouteHandler receives messages routed to a key this node owns; hops
// is the number of overlay forwards the message took (0 = originated
// locally or by a direct neighbor of the owner).
type RouteHandler func(key ids.ID, from Entry, hops int, payload interface{})

// AppHandler receives direct application messages.
type AppHandler func(from Entry, payload interface{})
