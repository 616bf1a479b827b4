package dht

import (
	"p2ppool/internal/eventsim"
	"p2ppool/internal/ids"
)

// heartbeat is the periodic keep-alive between leafset neighbors. It
// carries the sender's identity, a sample of its leafset for membership
// gossip, and per-subsystem payloads. It travels as a *heartbeat, so a
// receiver reads it in place; nobody writes one after sending it.
type heartbeat struct {
	From    Entry
	SentAt  eventsim.Time
	Entries leafSample    // for membership dissemination
	Payload []interface{} // one slot per registered Gossip
}

// heartbeatAck answers a heartbeat (and travels as a *heartbeatAck);
// echoing SentAt lets the original sender measure RTT. The paper's coordinate scheme has nodes "randomly
// choose to acknowledge" heartbeats — the ack probability is a config
// of the protocol driver, not the wire format.
type heartbeatAck struct {
	From    Entry
	SentAt  eventsim.Time // echoed from the heartbeat
	Entries leafSample
	Payload []interface{}
}

// sampleSize is the most leafset entries a heartbeat gossips.
const sampleSize = 4

// leafSample is a heartbeat's leafset sample, carried by value so that
// boxing the message is a leg's one allocation.
type leafSample struct {
	e [sampleSize]Entry
	n int
}

// list returns the sampled entries.
func (s *leafSample) list() []Entry { return s.e[:s.n] }

// joinRequest asks the owner of the joiner's ID for admission.
type joinRequest struct {
	Joiner Entry
}

// joinReply carries the admitting node's view: its leafset plus itself,
// from which the joiner builds its initial routing state.
type joinReply struct {
	Admitter Entry
	Entries  []Entry
}

// leafsetRequest asks a peer for its current leafset (repair pull).
type leafsetRequest struct {
	From Entry
}

// leafsetReply answers a leafsetRequest.
type leafsetReply struct {
	From    Entry
	Entries []Entry
}

// routed is a message being routed toward the owner of Key.
type routed struct {
	Key     ids.ID
	Origin  Entry
	Hops    int
	Size    int
	Payload interface{}
}

// appMsg is a direct (non-routed) application message.
type appMsg struct {
	From    Entry
	Payload interface{}
}

// notifyLeave is a courtesy message from a departing node to its
// leafset, carrying its view so survivors can repair instantly.
type notifyLeave struct {
	From    Entry
	Entries []Entry
}
