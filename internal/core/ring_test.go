package core

import (
	"math/rand"
	"testing"

	"p2ppool/internal/dht"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/somo"
	"p2ppool/internal/transport"
)

// somoRing assembles a 32-member ring with SOMO on a fresh engine and
// runs it for a minute; hostOrder picks which of Ring's two slices the
// agents are created over.
func somoRing(t *testing.T, hostOrder bool) (engine *eventsim.Engine, nodes []*dht.Node, agents []*somo.Agent, reattach func(int)) {
	t.Helper()
	engine = eventsim.New(7)
	sim := transport.NewSim(engine, transport.SimOptions{
		Latency: func(a, b int) float64 { return 30 },
	})
	ring, byHost, err := Ring(OnNet(sim), dht.RandomIDs(32, rand.New(rand.NewSource(7))), dht.Config{LeafsetRadius: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := dht.CheckRing(ring); err != nil {
		t.Fatal(err)
	}
	for h, nd := range byHost {
		if int(nd.Self().Addr) != h {
			t.Fatalf("byHost[%d] is the node at address %d", h, nd.Self().Addr)
		}
	}
	nodes = ring
	if hostOrder {
		nodes = byHost
	}
	agents, reattach = AttachSOMO(nodes, somo.Config{ReportInterval: eventsim.Second},
		func(host int) interface{} { return host })
	engine.RunUntil(eventsim.Minute)
	return engine, nodes, agents, reattach
}

// TestAttachSOMOCreationOrder: agents draw their first tick's jitter
// from the engine's stream as they are created, so the order of the
// slice handed to AttachSOMO is part of a run's identity — ring order
// and host order are two different, each reproducible, runs.
func TestAttachSOMOCreationOrder(t *testing.T) {
	processed := func(hostOrder bool) uint64 {
		engine, nodes, agents, _ := somoRing(t, hostOrder)
		for i, a := range agents {
			if a.Node() != nodes[i] {
				t.Fatalf("agents[%d] does not run on nodes[%d]", i, i)
			}
		}
		view, ok := ReadRoot(agents)
		if !ok || len(view.Snapshot.Records) != len(nodes) {
			t.Fatalf("hostOrder=%v: root sees %d of %d members (ok=%v)", hostOrder, len(view.Snapshot.Records), len(nodes), ok)
		}
		for _, rec := range view.Snapshot.Records {
			if rec.Data != int(rec.Source.Addr) {
				t.Fatalf("member at address %d published %v", rec.Source.Addr, rec.Data)
			}
		}
		return engine.Processed()
	}
	ring, host := processed(false), processed(true)
	if again := processed(false); again != ring {
		t.Errorf("ring-order run is not reproducible: %d then %d events", ring, again)
	}
	if again := processed(true); again != host {
		t.Errorf("host-order run is not reproducible: %d then %d events", host, again)
	}
	if ring == host {
		t.Errorf("ring-order and host-order creation both processed %d events; creation order should show", ring)
	}
}

// TestAttachSOMOReattach: a member whose agent was stopped by a crash
// gets a fresh one, in place, under the configuration and payload the
// ring was attached with.
func TestAttachSOMOReattach(t *testing.T) {
	engine, nodes, agents, reattach := somoRing(t, true)
	victim := (LiveRoot(agents) + 1) % len(agents) // anyone but the root
	old := agents[victim]
	old.Stop()
	nodes[victim].Stop()
	engine.RunUntil(engine.Now() + 30*eventsim.Second)
	if view, _ := ReadRoot(agents); len(view.Snapshot.Records) != len(nodes)-1 {
		t.Fatalf("crashed member still in view: %d records", len(view.Snapshot.Records))
	}
	nodes[victim].Join(nodes[0].Self())
	reattach(victim)
	if agents[victim] == old || agents[victim].Config() != old.Config() {
		t.Fatalf("reattach left agent %p config %+v, old %p %+v", agents[victim], agents[victim].Config(), old, old.Config())
	}
	engine.RunUntil(engine.Now() + 30*eventsim.Second)
	view, ok := ReadRoot(agents)
	if !ok || len(view.Snapshot.Records) != len(nodes) {
		t.Fatalf("rejoined member missing from view: %d records", len(view.Snapshot.Records))
	}
	if view.Depth < 1 || view.Staleness <= 0 {
		t.Errorf("view depth %d staleness %v", view.Depth, view.Staleness)
	}
}
