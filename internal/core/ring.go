package core

import (
	"p2ppool/internal/dht"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/ids"
	"p2ppool/internal/somo"
	"p2ppool/internal/transport"
)

// The live pool is assembled in stages — Ring, then AttachSOMO (or, for
// the full member stack, Pool.attachStack per node) — and read back
// through ReadRoot. BuildLive and the ring studies of
// internal/experiments all go through them, each over its own network
// (a Sim, a faultnet.Net, a ShardedSim's views) and with its own seeds.
//
// Creation order is part of the contract: every node, prober and agent
// draws its first timer's jitter from its network's random stream when
// it is created, so the same seed reproduces the same run only if the
// same things are created in the same order. Ring creates nodes in ring
// order; AttachSOMO creates agents in the order of the slice it is
// given.

// OnNet is the netFor of a ring whose members all share one network.
func OnNet(net transport.Network) func(transport.Addr) transport.Network {
	return func(transport.Addr) transport.Network { return net }
}

// Ring builds the pre-formed DHT ring of a static pool: host h gets
// nodeIDs[h] and address h, attached to netFor(h). It returns the nodes
// twice: ring in ascending ID order (ring[i]'s successor is ring[i+1]),
// and byHost indexed by address.
func Ring(netFor func(transport.Addr) transport.Network, nodeIDs []ids.ID, cfg dht.Config) (ring, byHost []*dht.Node, err error) {
	addrs := make([]transport.Addr, len(nodeIDs))
	for i := range addrs {
		addrs[i] = transport.Addr(i)
	}
	ring, err = dht.BuildRingOn(netFor, nodeIDs, addrs, cfg)
	if err != nil {
		return nil, nil, err
	}
	byHost = make([]*dht.Node, len(ring))
	for _, nd := range ring {
		byHost[nd.Self().Addr] = nd
	}
	return ring, byHost, nil
}

// AttachSOMO runs one SOMO agent on every node, created in the order
// of nodes: agents[i] belongs to nodes[i] and publishes report(host)
// for that node's address. reattach(i) replaces agents[i] with a fresh
// agent on nodes[i] under the same configuration and payload — what a
// member does when it rejoins after a crash that stopped its agent.
func AttachSOMO(nodes []*dht.Node, cfg somo.Config, report func(host int) interface{}) (agents []*somo.Agent, reattach func(i int)) {
	agents = make([]*somo.Agent, len(nodes))
	reattach = func(i int) {
		host := int(nodes[i].Self().Addr)
		agents[i] = somo.NewAgent(nodes[i], cfg, func() interface{} { return report(host) })
	}
	for i := range nodes {
		reattach(i)
	}
	return agents, reattach
}

// LiveRoot returns the index in agents of the first one that runs on an
// active node and hosts the SOMO root, or -1. On a converged ring
// exactly one member owns the root position.
func LiveRoot(agents []*somo.Agent) int {
	for i, a := range agents {
		if a.Node().Active() && a.IsRoot() {
			return i
		}
	}
	return -1
}

// RootView is the pool as its SOMO root currently reports it.
type RootView struct {
	// Snapshot is the live root's answer to a query; zero when there is
	// no live root.
	Snapshot somo.Snapshot
	// Staleness is the age of the snapshot's oldest record when the
	// root assembled it.
	Staleness eventsim.Time
	// Depth is the deepest level of the logical tree any agent
	// represents.
	Depth int
}

// ReadRoot queries the live root among agents.
func ReadRoot(agents []*somo.Agent) (view RootView, ok bool) {
	for _, a := range agents {
		if l := a.Representative().Level; l > view.Depth {
			view.Depth = l
		}
	}
	root := LiveRoot(agents)
	if root < 0 {
		return view, false
	}
	agents[root].Query(func(s somo.Snapshot) { view.Snapshot = s })
	for _, rec := range view.Snapshot.Records {
		if age := view.Snapshot.Time - rec.Time; age > view.Staleness {
			view.Staleness = age
		}
	}
	return view, true
}
