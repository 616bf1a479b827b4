package dht

import (
	"fmt"
	"slices"

	"p2ppool/internal/eventsim"
	"p2ppool/internal/ids"
	"p2ppool/internal/obs"
	"p2ppool/internal/transport"
)

// neighbor is one leafset member and when it was last heard from.
type neighbor struct {
	entry     Entry
	lastHeard eventsim.Time
}

// Stats counts protocol activity for a node.
type Stats struct {
	HeartbeatsSent uint64
	AcksReceived   uint64
	Failures       uint64 // neighbors declared dead
	Routed         uint64 // routed messages forwarded or delivered
	Delivered      uint64 // routed messages delivered locally
	SuspectProbes  uint64 // re-probes of failed neighbors (partition healing)
}

// suspect is a failed leafset neighbor the node keeps re-probing in
// case the failure was really a partition or a crash-restart.
type suspect struct {
	entry Entry
	since eventsim.Time
}

// Node is one DHT participant. All methods must be called from the
// network's dispatch context (the event loop in Sim mode, a single
// handler goroutine in Live mode); the type itself holds no locks.
type Node struct {
	net  transport.Network
	cfg  Config
	self Entry

	active bool
	// table is the leafset, and the only membership state: at most
	// 2*LeafsetRadius neighbors strictly ordered by clockwise distance
	// from self, so table[0] is the successor and the last entry the
	// predecessor. It always holds the LeafsetRadius closest per side of
	// everything offered to it (admit) and not since removed.
	table []neighbor
	// tombstones remembers recently departed/failed nodes so that
	// membership gossip cannot reintroduce them as zombies; entries
	// expire so a genuinely rejoining node is not shunned forever, and
	// any direct message from a tombstoned node resurrects it at once.
	tombstones map[ids.ID]eventsim.Time

	fingers []Entry // fingers[i] ~ owner of self + 2^(RingBits-Fingers+i)
	// probes are the outstanding liveness probes to finger nodes, each
	// recording when its target was last heard from. A finger that stays
	// silent past the failure timeout is purged, so routed traffic stops
	// black-holing through dead pointers that are not in the leafset.
	probes      []fingerProbe
	probeCursor int
	// heardNow lists the peers heard from at heardAt, the latest instant
	// anything was: a probe sent later in that instant counts them as
	// having answered (see probeOneFinger).
	heardAt  eventsim.Time
	heardNow []ids.ID

	// suspects are declared-dead leafset neighbors still worth one
	// cheap probe per heartbeat tick: if the "failure" was a partition
	// that since healed (or the peer restarted at the same address),
	// one answered probe re-merges the two sides of the ring.
	suspects      map[ids.ID]suspect
	suspectCursor int
	suspectIDs    []ids.ID // probeOneSuspect's scratch

	gossips       []Gossip
	routeHandlers []RouteHandler
	appHandlers   []AppHandler

	// joinSeed remembers the entry this node joined through, and
	// lastJoinSent when the last join request went out. A join request
	// is a single message; if it is lost (partition, crash window, link
	// loss) the node would otherwise stay outside the ring forever
	// while believing it had joined, so a lone node re-sends its join
	// every FailureTimeout until it hears from anyone.
	joinSeed     Entry
	lastJoinSent eventsim.Time

	cancelHB transport.CancelFunc
	cancelFF transport.CancelFunc

	stats Stats

	// Observability handles (nil when uninstrumented; recording changes
	// no protocol decisions and draws no randomness).
	trace      *obs.Trace
	hRouteHops *obs.Histogram
}

// NewNode creates a node. It does not join any ring; call Bootstrap
// (first node) or Join.
func NewNode(net transport.Network, id ids.ID, addr transport.Addr, cfg Config) *Node {
	n := &Node{
		net:        net,
		cfg:        cfg.withDefaults(),
		self:       Entry{ID: id, Addr: addr},
		tombstones: make(map[ids.ID]eventsim.Time),
		suspects:   make(map[ids.ID]suspect),
	}
	n.table = make([]neighbor, 0, 2*n.cfg.LeafsetRadius)
	n.fingers = make([]Entry, n.cfg.Fingers)
	for i := range n.fingers {
		n.fingers[i] = NoEntry
	}
	net.Attach(addr, n.onMessage)
	return n
}

// Self returns the node's entry.
func (n *Node) Self() Entry { return n.self }

// Active reports whether the node has joined a ring.
func (n *Node) Active() bool { return n.active }

// Stats returns a copy of the node's protocol counters.
func (n *Node) Stats() Stats { return n.stats }

// Instrument wires the node to an observability registry and trace:
// heartbeat/ack/failure counters, routed/delivered counters, a
// route-hop histogram, and per-hop trace events. Either argument may
// be nil; instrumentation never alters protocol behavior.
func (n *Node) Instrument(reg *obs.Registry, trace *obs.Trace) {
	n.trace = trace
	reg.Counter("dht.heartbeats_sent", func() uint64 { return n.stats.HeartbeatsSent })
	reg.Counter("dht.acks_received", func() uint64 { return n.stats.AcksReceived })
	reg.Counter("dht.failures", func() uint64 { return n.stats.Failures })
	reg.Counter("dht.routed", func() uint64 { return n.stats.Routed })
	reg.Counter("dht.delivered", func() uint64 { return n.stats.Delivered })
	reg.Counter("dht.suspect_probes", func() uint64 { return n.stats.SuspectProbes })
	n.hRouteHops = reg.Histogram("dht.route_hops", []float64{0, 1, 2, 3, 4, 6, 8, 12, 16})
}

// Config returns the node's effective configuration.
func (n *Node) Config() Config { return n.cfg }

// Bootstrap starts this node as the first member of a new ring.
func (n *Node) Bootstrap() {
	n.active = true
	n.reattach()
	n.startTimers()
}

// Join admits this node to the ring via any existing member. The seed
// routes a join request to the owner of the joiner's ID, which replies
// with its leafset.
func (n *Node) Join(seed Entry) {
	n.active = true
	n.reattach()
	n.startTimers()
	n.joinSeed = seed
	n.sendJoin()
}

// sendJoin (re-)sends the join request through the remembered seed.
func (n *Node) sendJoin() {
	n.lastJoinSent = n.net.Now()
	n.send(n.joinSeed, 64, routed{
		Key:     n.self.ID,
		Origin:  n.self,
		Size:    64,
		Payload: joinRequest{Joiner: n.self},
	})
}

// Leave gracefully departs: leafset members get the node's view so they
// can repair immediately, then the node detaches from the network.
func (n *Node) Leave() {
	if !n.active {
		return
	}
	entries := n.Leafset()
	msg := notifyLeave{From: n.self, Entries: append(entries, n.self)}
	for _, e := range entries {
		n.send(e, 64+8*len(msg.Entries), msg)
	}
	n.Stop()
}

// reattach re-registers the node's transport handler. Stop (crash)
// detaches it, so a node restarted via Join/Bootstrap would otherwise
// be deaf — it could send but never hear a reply, leaving it stuck
// outside the ring forever. Attaching an already-attached address
// just replaces the handler, so this is a no-op for fresh nodes.
func (n *Node) reattach() {
	n.net.Attach(n.self.Addr, n.onMessage)
}

// Stop halts timers and detaches without notifying anyone (a crash).
func (n *Node) Stop() {
	n.active = false
	if n.cancelHB != nil {
		n.cancelHB()
		n.cancelHB = nil
	}
	if n.cancelFF != nil {
		n.cancelFF()
		n.cancelFF = nil
	}
	n.net.Detach(n.self.Addr)
}

// RegisterGossip attaches a heartbeat-piggyback subsystem. The order of
// registration fixes the payload slot order on the wire, so register
// the same subsystems in the same order on every node.
func (n *Node) RegisterGossip(g Gossip) { n.gossips = append(n.gossips, g) }

// OnRouted registers a handler for messages routed to keys this node
// owns. Multiple subsystems may register; each receives every delivery
// and ignores payload types it does not understand.
func (n *Node) OnRouted(h RouteHandler) { n.routeHandlers = append(n.routeHandlers, h) }

// OnApp registers a handler for direct application messages. As with
// OnRouted, all registered handlers see every message.
func (n *Node) OnApp(h AppHandler) { n.appHandlers = append(n.appHandlers, h) }

// Network returns the transport the node runs on (clock and timers for
// subsystems layered on the node).
func (n *Node) Network() transport.Network { return n.net }

// Zone returns the node's current responsible zone (pred, self].
func (n *Node) Zone() ids.Zone {
	pred := n.Predecessor()
	if pred.IsZero() {
		return ids.Zone{Start: n.self.ID, End: n.self.ID} // whole ring
	}
	return ids.Zone{Start: pred.ID, End: n.self.ID}
}

// Predecessor returns the closest counterclockwise neighbor, or NoEntry.
func (n *Node) Predecessor() Entry {
	if len(n.table) == 0 {
		return NoEntry
	}
	// The largest clockwise distance is the smallest counterclockwise.
	return n.table[len(n.table)-1].entry
}

// Successor returns the closest clockwise neighbor, or NoEntry.
func (n *Node) Successor() Entry {
	if len(n.table) == 0 {
		return NoEntry
	}
	return n.table[0].entry
}

// Leafset returns the node's current leafset: up to LeafsetRadius
// entries on each side, ordered clockwise starting from the successor.
// The slice is freshly allocated.
func (n *Node) Leafset() []Entry {
	out := make([]Entry, len(n.table))
	for i, nb := range n.table {
		out[i] = nb.entry
	}
	return out
}

// LeafsetSize returns the number of distinct leafset members.
func (n *Node) LeafsetSize() int { return len(n.table) }

// send transmits a protocol message.
func (n *Node) send(to Entry, size int, msg transport.Message) {
	if to.IsZero() || to.Addr == n.self.Addr {
		return
	}
	n.net.Send(n.self.Addr, to.Addr, size, msg)
}

// SendApp sends a direct application message of the given wire size.
func (n *Node) SendApp(to Entry, size int, payload interface{}) {
	n.send(to, size, appMsg{From: n.self, Payload: payload})
}

// Route forwards payload toward the owner of key. If this node owns the
// key the handler runs locally (synchronously).
func (n *Node) Route(key ids.ID, size int, payload interface{}) {
	n.routeMsg(routed{Key: key, Origin: n.self, Size: size, Payload: payload})
}

// --- message pump ---

func (n *Node) onMessage(from transport.Addr, msg transport.Message) {
	if !n.active {
		return
	}
	switch m := msg.(type) {
	case *heartbeat:
		n.onHeartbeat(m)
	case *heartbeatAck:
		n.onHeartbeatAck(m)
	case routed:
		n.routeMsg(m)
	case appMsg:
		n.touch(m.From)
		for _, h := range n.appHandlers {
			h(m.From, m.Payload)
		}
	case joinReply:
		n.onJoinReply(m)
	case leafsetRequest:
		n.touch(m.From)
		n.send(m.From, 64+8*len(n.table), leafsetReply{From: n.self, Entries: append(n.Leafset(), n.self)})
	case leafsetReply:
		n.touch(m.From)
		n.merge(m.Entries...)
	case notifyLeave:
		n.bury(m.From.ID)
		n.merge(m.Entries...)
	case fingerResult:
		if m.Index >= 0 && m.Index < len(n.fingers) && m.Owner.Addr != n.self.Addr {
			n.fingers[m.Index] = m.Owner
		}
	default:
		panic(fmt.Sprintf("dht: unknown message type %T", msg))
	}
}

// --- membership ---

// find locates id in the table: its index and true, or the index at
// which it would be inserted and false. The search is written out
// because every touch and every gossiped entry runs it.
func (n *Node) find(id ids.ID) (int, bool) {
	d := ids.Dist(n.self.ID, id)
	lo, hi := 0, len(n.table)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids.Dist(n.self.ID, n.table[mid].entry.ID) < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.table) && n.table[lo].entry.ID == id
}

// admit offers a non-member e, heard at now, for slot i (from find).
// On a full table e is kept only if it is among the LeafsetRadius
// closest on one side of the table plus itself; it then displaces
// exactly one entry, the middle of those 2r+1, which is on neither
// side's closest r. A candidate that would itself be the middle leaves
// the table untouched.
func (n *Node) admit(i int, e Entry, now eventsim.Time) {
	r := n.cfg.LeafsetRadius
	if len(n.table) < 2*r {
		n.table = slices.Insert(n.table, i, neighbor{entry: e, lastHeard: now})
		return
	}
	switch {
	case i == r:
		return
	case i < r: // evict table[r-1]: shift [i, r-1) up
		copy(n.table[i+1:r], n.table[i:r-1])
	default: // evict table[r]: shift (r, i) down
		copy(n.table[r:i-1], n.table[r+1:i])
		i--
	}
	n.table[i] = neighbor{entry: e, lastHeard: now}
}

// touch records liveness for a peer and offers it to the leafset.
// Direct evidence of life clears any tombstone.
func (n *Node) touch(e Entry) {
	if e.Addr == n.self.Addr || e.IsZero() {
		return
	}
	now := n.net.Now()
	delete(n.tombstones, e.ID)
	delete(n.suspects, e.ID)
	n.noteContact(e.ID, now)
	i, ok := n.find(e.ID)
	if ok {
		n.table[i].lastHeard = now
		return
	}
	n.admit(i, e, now)
}

// merge offers gossiped entries (grace-period liveness) to the leafset.
// Tombstoned entries are ignored: second-hand gossip must not
// resurrect a node we know to be dead. An entry that does not qualify
// leaves no trace beyond clearing its expired tombstone and its suspect
// record.
func (n *Node) merge(entries ...Entry) {
	now := n.net.Now()
	for _, e := range entries {
		if e.IsZero() || e.Addr == n.self.Addr {
			continue
		}
		if exp, dead := n.tombstones[e.ID]; dead {
			if now < exp {
				continue
			}
			delete(n.tombstones, e.ID)
		}
		i, ok := n.find(e.ID)
		if ok {
			continue
		}
		delete(n.suspects, e.ID)
		n.admit(i, e, now)
	}
}

// bury tombstones a departed node and removes it from the leafset and
// finger table.
func (n *Node) bury(id ids.ID) {
	n.tombstones[id] = n.net.Now() + n.cfg.tombstone()
	// A deliberate departure is not a suspected partition.
	delete(n.suspects, id)
	n.purgeFinger(id)
	if i, ok := n.find(id); ok {
		n.table = slices.Delete(n.table, i, i+1)
	}
}

// purgeFinger clears finger entries pointing at a dead node so routed
// traffic stops black-holing through them.
func (n *Node) purgeFinger(id ids.ID) {
	for i, f := range n.fingers {
		if !f.IsZero() && f.ID == id {
			n.fingers[i] = NoEntry
		}
	}
}

// --- heartbeats & failure handling ---

func (n *Node) startTimers() {
	if n.cancelHB == nil {
		// Desynchronize first beats across nodes.
		first := eventsim.Time(n.net.Rand().Float64()) * n.cfg.HeartbeatInterval
		n.cancelHB = n.net.After(first, n.heartbeatTick)
	}
	if n.cancelFF == nil && n.cfg.Fingers > 0 {
		first := eventsim.Time(n.net.Rand().Float64()) * n.cfg.FixFingersInterval
		n.cancelFF = n.net.After(first, n.fixFingersTick)
	}
}

func (n *Node) heartbeatTick() {
	if !n.active {
		return
	}
	// A lone node retries its join: the single join request (or its
	// reply) may have been lost, and nobody heartbeats a node that
	// never made it into any leafset.
	if len(n.table) == 0 && !n.joinSeed.IsZero() &&
		n.net.Now()-n.lastJoinSent >= n.cfg.FailureTimeout {
		n.sendJoin()
	}
	n.checkFailures()
	hb := heartbeat{
		From:    n.self,
		SentAt:  n.net.Now(),
		Entries: n.gossipSample(),
	}
	if len(n.gossips) == 0 {
		// No per-peer payloads: every leafset member gets the identical
		// message, so allocate it once instead of once per peer. At N
		// nodes × L leafset members per tick this is the largest
		// steady-state allocation in the whole simulator.
		shared := hb
		size := n.heartbeatSize(&hb)
		for _, nb := range n.table {
			n.send(nb.entry, size, &shared)
			n.stats.HeartbeatsSent++
		}
	} else {
		for _, nb := range n.table {
			m := hb
			m.Payload = n.collectPayloads(nb.entry)
			n.send(nb.entry, n.heartbeatSize(&m), &m)
			n.stats.HeartbeatsSent++
		}
	}
	n.probeOneFinger(&hb)
	n.probeOneSuspect()
	n.cancelHB = n.net.After(n.cfg.HeartbeatInterval, n.heartbeatTick)
}

// probeOneSuspect re-probes one declared-dead leafset neighbor per tick
// (round-robin). A node on the far side of a partition looks exactly
// like a crashed node; once the partition heals, one answered probe
// triggers touch/merge on both sides — direct messages clear tombstones
// — and the two halves of the ring re-merge. Suspects expire after
// suspectTTL so genuinely dead nodes stop costing probes.
func (n *Node) probeOneSuspect() {
	if len(n.suspects) == 0 {
		return
	}
	now := n.net.Now()
	alive := n.suspectIDs[:0]
	for id, s := range n.suspects {
		if now-s.since > n.cfg.suspectTTL() {
			delete(n.suspects, id)
			continue
		}
		alive = append(alive, id)
	}
	n.suspectIDs = alive
	if len(alive) == 0 {
		return
	}
	slices.Sort(alive) // map order is random; the round-robin must not be
	n.suspectCursor = (n.suspectCursor + 1) % len(alive)
	target := n.suspects[alive[n.suspectCursor]]
	n.send(target.entry, 64, leafsetRequest{From: n.self})
	n.stats.SuspectProbes++
}

// fingerProbe is one outstanding liveness probe: its target, when it
// was sent, and when the target was last heard from since (heard).
type fingerProbe struct {
	id        ids.ID
	sentAt    eventsim.Time
	lastHeard eventsim.Time
	heard     bool
}

// noteContact records that a message arrived from id at now: it answers any
// pending probe to id, and id stays in heardNow for the rest of the
// instant.
func (n *Node) noteContact(id ids.ID, now eventsim.Time) {
	if now != n.heardAt {
		n.heardAt, n.heardNow = now, n.heardNow[:0]
	}
	n.heardNow = append(n.heardNow, id)
	for i := range n.probes {
		if p := &n.probes[i]; p.id == id {
			p.lastHeard, p.heard = now, true
		}
	}
}

// probeOneFinger sends a liveness heartbeat to one finger per tick
// (round-robin) and purges fingers that stayed silent past the failure
// timeout. Leafset failure detection does not cover fingers, and a
// dead finger otherwise black-holes routed traffic until the slow
// random refresh happens to replace it. A probe is answered by any
// message from its target no earlier than the probe was sent — one
// heard earlier in the probe's own instant included — and not longer
// ago than contactMemory when the probe expires.
func (n *Node) probeOneFinger(hb *heartbeat) {
	now := n.net.Now()
	// First, expire outstanding probes that got no answer.
	pending := n.probes[:0]
	for _, p := range n.probes {
		if now-p.sentAt <= n.cfg.FailureTimeout {
			pending = append(pending, p)
			continue
		}
		if !p.heard || now-p.lastHeard > n.cfg.contactMemory() {
			n.tombstones[p.id] = now + n.cfg.tombstone()
			n.purgeFinger(p.id)
		}
	}
	n.probes = pending
	if len(n.fingers) == 0 {
		return
	}
	for tries := 0; tries < len(n.fingers); tries++ {
		n.probeCursor = (n.probeCursor + 1) % len(n.fingers)
		f := n.fingers[n.probeCursor]
		if f.IsZero() {
			continue
		}
		if _, ok := n.find(f.ID); ok {
			return // already heartbeated as a leafset member
		}
		if n.probing(f.ID) {
			return
		}
		p := fingerProbe{id: f.ID, sentAt: now}
		if now == n.heardAt && slices.Contains(n.heardNow, f.ID) {
			p.lastHeard, p.heard = now, true
		}
		n.probes = append(n.probes, p)
		m := *hb
		m.Payload = n.collectPayloads(f)
		n.send(f, n.heartbeatSize(&m), &m)
		n.stats.HeartbeatsSent++
		return
	}
}

// probing reports whether a probe to id is outstanding.
func (n *Node) probing(id ids.ID) bool {
	for _, p := range n.probes {
		if p.id == id {
			return true
		}
	}
	return false
}

func (n *Node) heartbeatSize(hb *heartbeat) int {
	return heartbeatBytes + 8*hb.Entries.n
}

// gossipSample returns a few leafset entries to disseminate membership.
func (n *Node) gossipSample() leafSample {
	var s leafSample
	if len(n.table) <= sampleSize {
		for _, nb := range n.table {
			s.e[s.n] = nb.entry
			s.n++
		}
		return s
	}
	// Successor, predecessor and two random members: ends keep ring
	// consistency tight, randoms spread global membership.
	s.e[0], s.e[1] = n.table[0].entry, n.table[len(n.table)-1].entry
	for s.n = 2; s.n < sampleSize; s.n++ {
		s.e[s.n] = n.table[n.net.Rand().Intn(len(n.table))].entry
	}
	return s
}

func (n *Node) collectPayloads(peer Entry) []interface{} {
	if len(n.gossips) == 0 {
		return nil
	}
	out := make([]interface{}, len(n.gossips))
	for i, g := range n.gossips {
		out[i] = g.HeartbeatPayload(peer)
	}
	return out
}

func (n *Node) deliverPayloads(peer Entry, rtt float64, payloads []interface{}) {
	for i, g := range n.gossips {
		var p interface{}
		if i < len(payloads) {
			p = payloads[i]
		}
		g.OnHeartbeat(peer, rtt, p)
	}
}

func (n *Node) onHeartbeat(m *heartbeat) {
	n.touch(m.From)
	n.merge(m.Entries.list()...)
	// The request leg carries no fresh RTT sample.
	n.deliverPayloads(m.From, -1, m.Payload)
	ack := &heartbeatAck{
		From:    n.self,
		SentAt:  m.SentAt,
		Entries: n.gossipSample(),
		Payload: n.collectPayloads(m.From),
	}
	n.send(m.From, heartbeatBytes+8*ack.Entries.n, ack)
}

func (n *Node) onHeartbeatAck(m *heartbeatAck) {
	n.touch(m.From)
	n.merge(m.Entries.list()...)
	n.stats.AcksReceived++
	rtt := float64(n.net.Now() - m.SentAt)
	n.deliverPayloads(m.From, rtt, m.Payload)
}

func (n *Node) checkFailures() {
	now := n.net.Now()
	live := n.table[:0]
	for _, nb := range n.table {
		if now-nb.lastHeard <= n.cfg.FailureTimeout {
			live = append(live, nb)
			continue
		}
		id := nb.entry.ID
		n.tombstones[id] = now + n.cfg.tombstone()
		// Keep re-probing: the "failure" may really be a partition.
		n.suspects[id] = suspect{entry: nb.entry, since: now}
		n.purgeFinger(id)
		n.stats.Failures++
	}
	if len(live) == len(n.table) {
		return
	}
	n.table = live
	// Repair: pull fresh leafsets from the nearest survivors on both sides.
	if s := n.Successor(); !s.IsZero() {
		n.send(s, 64, leafsetRequest{From: n.self})
	}
	if p := n.Predecessor(); !p.IsZero() {
		n.send(p, 64, leafsetRequest{From: n.self})
	}
}

// --- join ---

func (n *Node) onJoinReply(m joinReply) {
	n.touch(m.Admitter)
	n.merge(m.Entries...)
	// Announce ourselves to our new leafset immediately rather than
	// waiting for the next heartbeat tick.
	hb := heartbeat{From: n.self, SentAt: n.net.Now(), Entries: n.gossipSample()}
	if len(n.gossips) == 0 {
		shared := hb // identical for every peer: allocate once
		size := n.heartbeatSize(&hb)
		for _, nb := range n.table {
			n.send(nb.entry, size, &shared)
		}
	} else {
		for _, nb := range n.table {
			m := hb
			m.Payload = n.collectPayloads(nb.entry)
			n.send(nb.entry, n.heartbeatSize(&m), &m)
		}
	}
}
