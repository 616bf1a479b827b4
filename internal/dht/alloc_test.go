package dht

import (
	"slices"
	"testing"

	"p2ppool/internal/transport"
)

// TestHeartbeatSteadyStateAllocs pins what one heartbeat -> ack round
// trip allocates on a settled ring: the boxed message of each leg (the
// gossip sample rides inside it by value), nothing else. Both peers hold full leafsets and
// each leg's gossip names members outside the receiver's range (the
// sender's far-side neighbor), the case that used to re-sort and
// re-prune the whole leafset; it must also leave both tables as they
// were.
func TestHeartbeatSteadyStateAllocs(t *testing.T) {
	e, net := testNet(1)
	const radius = 4
	cfg := Config{LeafsetRadius: radius, Fingers: -1}
	ringIDs := RandomIDs(64, e.Rand())
	slices.Sort(ringIDs)
	nodes := make([]*Node, len(ringIDs))
	for i, id := range ringIDs {
		nodes[i] = NewNode(net, id, transport.Addr(i), cfg)
	}
	// Wire the leafsets by hand: BuildRing would also start the
	// periodic timers, and this test wants the engine to drain.
	for i, nd := range nodes {
		for k := 1; k <= radius; k++ {
			nd.merge(nodes[(i+k)%len(nodes)].self, nodes[(i-k+len(nodes))%len(nodes)].self)
		}
		nd.active = true
	}
	a, b := nodes[10], nodes[10+radius] // b is the edge of a's leafset
	before := [2][]Entry{a.Leafset(), b.Leafset()}

	roundTrip := func() {
		hb := &heartbeat{From: a.self, SentAt: net.Now(), Entries: a.gossipSample()}
		a.send(b.self, a.heartbeatSize(hb), hb)
		for e.Step() {
		}
	}
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	if got := a.Stats().AcksReceived; got != 64 {
		t.Fatalf("warmup: %d acks, want 64", got)
	}
	const want = 2 // one boxed message x {heartbeat, ack}
	if allocs := testing.AllocsPerRun(500, roundTrip); allocs > want {
		t.Errorf("heartbeat round trip allocates %.2f/op, want <= %d", allocs, want)
	}
	if !slices.Equal(a.Leafset(), before[0]) || !slices.Equal(b.Leafset(), before[1]) {
		t.Errorf("out-of-range gossip changed a settled leafset")
	}
}
