package dht

import (
	"math/rand"
	"testing"

	"p2ppool/internal/eventsim"
	"p2ppool/internal/faultnet"
	"p2ppool/internal/ids"
	"p2ppool/internal/transport"
)

// A join request is a single message; if a partition (or any loss)
// swallows it, the joiner used to stay outside the ring forever while
// believing it had joined — nobody heartbeats a node that never made
// it into any leafset, and a fresh node has no stale fingers to rescue
// it. The lone-node join retry closes that hole: surfaced by the
// invariant audit's long-outage scenario (a host restarting behind a
// partition after every suspect probe for it had expired).
func TestJoinRetriesThroughPartition(t *testing.T) {
	e, sim := testNet(11)
	f := faultnet.New(sim, faultnet.Options{Seed: 3})
	cfg := Config{
		LeafsetRadius:     4,
		HeartbeatInterval: eventsim.Second,
		FailureTimeout:    3 * eventsim.Second,
	}
	r := rand.New(rand.NewSource(7))
	const n = 8
	idList := RandomIDs(n, r)
	addrs := make([]transport.Addr, n)
	for i := range addrs {
		addrs[i] = transport.Addr(i)
	}
	nodes, err := BuildRing(f, idList, addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(30 * eventsim.Second)

	var id ids.ID
	for {
		id = ids.Random(r)
		fresh := true
		for _, have := range idList {
			if have == id {
				fresh = false
			}
		}
		if fresh {
			break
		}
	}
	joiner := NewNode(f, id, transport.Addr(100), cfg)
	f.Partition(addrs, []transport.Addr{100})
	joiner.Join(nodes[0].Self())
	e.RunUntil(e.Now() + 20*eventsim.Second)
	if got := len(joiner.Leafset()); got != 0 {
		t.Fatalf("joiner built a leafset of %d through an active partition", got)
	}

	f.Heal()
	e.RunUntil(e.Now() + 30*eventsim.Second)
	if got := len(joiner.Leafset()); got == 0 {
		t.Fatalf("joiner still outside the ring %v after heal: join was never retried", e.Now())
	}
	all := append(append([]*Node(nil), nodes...), joiner)
	SortByID(all)
	if err := CheckRing(all); err != nil {
		t.Fatalf("ring did not absorb the joiner: %v", err)
	}
}

// joinWatch is a network that records, per joiner address, the join
// requests sent to that address and the join replies sent to it.
type joinWatch struct {
	transport.Network
	requestsAtJoiner, replies map[transport.Addr]int
}

func (w *joinWatch) Send(from, to transport.Addr, size int, msg transport.Message) {
	switch m := msg.(type) {
	case routed:
		if req, ok := m.Payload.(joinRequest); ok && req.Joiner.Addr == to {
			w.requestsAtJoiner[to]++
		}
	case joinReply:
		w.replies[to]++
	}
	w.Network.Send(from, to, size, msg)
}

// TestJoinAnsweredByTheOwner: a join request travels to the owner of
// the joiner's ID, which answers with its leafset. A hop that admitted
// the joiner into its own table while routing would find the joiner
// the best next hop for its own ID and hand the request back to it,
// where the reply to itself went nowhere.
func TestJoinAnsweredByTheOwner(t *testing.T) {
	e, sim := testNet(3)
	w := &joinWatch{Network: sim, requestsAtJoiner: map[transport.Addr]int{}, replies: map[transport.Addr]int{}}
	cfg := Config{LeafsetRadius: 8}
	nodes := buildTestRing(t, w, 16, cfg, 6)
	e.RunUntil(5 * eventsim.Second)

	r := rand.New(rand.NewSource(77))
	for i, id := range RandomIDs(100, r)[90:] {
		nd := NewNode(w, id, transport.Addr(1000+i), cfg)
		nd.Join(nodes[r.Intn(len(nodes))].Self())
	}
	e.RunUntil(e.Now() + 10*eventsim.Second)
	for i := 0; i < 10; i++ {
		a := transport.Addr(1000 + i)
		if w.requestsAtJoiner[a] != 0 {
			t.Errorf("joiner %d: its join request was routed back to it %d time(s)", a, w.requestsAtJoiner[a])
		}
		if w.replies[a] == 0 {
			t.Errorf("joiner %d received no join reply", a)
		}
	}
}
