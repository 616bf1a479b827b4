package dht

import (
	"p2ppool/internal/ids"
	"p2ppool/internal/obs"
)

// fingerResolve is an internally routed payload used to refresh finger
// table entries: the owner of the target key answers with fingerResult.
type fingerResolve struct {
	Index  int
	Origin Entry
}

// fingerResult carries a resolved finger back to the asking node.
type fingerResult struct {
	Index int
	Owner Entry
}

// routeMsg advances a routed message one hop, delivering it locally if
// this node owns the key.
func (n *Node) routeMsg(m routed) {
	n.stats.Routed++
	n.trace.Record(obs.Event{Time: n.net.Now(), Kind: obs.KindHop, From: int(m.Origin.Addr), To: int(n.self.Addr), Size: m.Size, Hop: m.Hops})
	// A joiner is not admitted on the way: a hop holding it would pick
	// it as the next hop for its own ID and route the request back to
	// it. The owner's deliver admits it after replying.
	if _, join := m.Payload.(joinRequest); !join && m.Origin.Addr != n.self.Addr {
		n.touch(m.Origin)
	}
	if n.owns(m.Key) {
		n.deliver(m)
		return
	}
	if m.Hops >= n.cfg.MaxHops {
		// Routing loop or badly stale tables; drop. The safety valve
		// matters during heavy churn when ownership is ambiguous.
		return
	}
	next := n.nextHop(m.Key)
	if next.IsZero() || next.Addr == n.self.Addr {
		// No better candidate known: treat as locally owned (single
		// node, or transient state during join).
		n.deliver(m)
		return
	}
	m.Hops++
	n.send(next, m.Size, m)
}

// owns reports whether this node is currently responsible for key.
func (n *Node) owns(key ids.ID) bool {
	return n.Zone().Contains(key)
}

// deliver hands a routed message to the local handler.
func (n *Node) deliver(m routed) {
	n.stats.Delivered++
	n.hRouteHops.Observe(float64(m.Hops))
	switch p := m.Payload.(type) {
	case joinRequest:
		// Admit the joiner: share our view (it includes the keys it
		// will take over) and adopt it as a neighbor.
		reply := joinReply{Admitter: n.self, Entries: append(n.Leafset(), n.self)}
		n.send(p.Joiner, 64+8*len(reply.Entries), reply)
		n.touch(p.Joiner)
	case fingerResolve:
		n.send(p.Origin, 64, fingerResult{Index: p.Index, Owner: n.self})
	default:
		for _, h := range n.routeHandlers {
			h(m.Key, m.Origin, m.Hops, m.Payload)
		}
	}
}

// nextHop picks the known node that makes the most clockwise progress
// toward key without overshooting it: the farthest candidate in
// (self, key]. If no candidate precedes the key, the successor is the
// owner (or at least closer), so forward there.
func (n *Node) nextHop(key ids.ID) Entry {
	best := NoEntry
	var bestDist uint64
	consider := func(e Entry) {
		if e.IsZero() || e.Addr == n.self.Addr {
			return
		}
		if !ids.Between(n.self.ID, key, e.ID) {
			return
		}
		d := ids.Dist(n.self.ID, e.ID)
		if best.IsZero() || d > bestDist {
			best = e
			bestDist = d
		}
	}
	for _, nb := range n.table {
		consider(nb.entry)
	}
	for _, e := range n.fingers {
		consider(e)
	}
	if best.IsZero() {
		return n.Successor()
	}
	return best
}

// fixFingersTick refreshes one finger per period (round-robin), the
// classic low-overhead Chord maintenance schedule.
func (n *Node) fixFingersTick() {
	if !n.active {
		return
	}
	if len(n.fingers) > 0 && len(n.table) > 0 {
		i := int(n.net.Rand().Intn(len(n.fingers)))
		target := n.fingerTarget(i)
		if !n.owns(target) {
			n.Route(target, 64, fingerResolve{Index: i, Origin: n.self})
		}
	}
	n.cancelFF = n.net.After(n.cfg.FixFingersInterval, n.fixFingersTick)
}

// fingerTarget returns the key finger i points at: self + 2^(RingBits-Fingers+i).
// Finger 0 is the shortest pointer; the last finger reaches half the ring.
func (n *Node) fingerTarget(i int) ids.ID {
	shift := uint(ids.RingBits - len(n.fingers) + i)
	return ids.Add(n.self.ID, 1<<shift)
}

// Fingers returns a copy of the finger table (testing/diagnostics).
func (n *Node) Fingers() []Entry {
	return append([]Entry(nil), n.fingers...)
}
