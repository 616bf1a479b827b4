package dht

import (
	"fmt"
	"math/rand"
	"sort"

	"p2ppool/internal/ids"
	"p2ppool/internal/transport"
)

// RandomIDs draws n distinct ring IDs from r.
func RandomIDs(n int, r *rand.Rand) []ids.ID {
	seen := make(map[ids.ID]bool, n)
	out := make([]ids.ID, 0, n)
	for len(out) < n {
		id := ids.Random(r)
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// BuildRing constructs a fully formed ring of len(nodeIDs) nodes with
// addresses addrs[i] and wires every leafset directly, skipping the
// join protocol. Experiments with static membership (the paper's ALM
// study assumes a stable pool) start from this state; churn experiments
// use Join/Leave on top of it.
//
// The returned slice is ordered by ring ID (ascending), which makes the
// i-th node's successor the (i+1 mod n)-th.
func BuildRing(net transport.Network, nodeIDs []ids.ID, addrs []transport.Addr, cfg Config) ([]*Node, error) {
	return BuildRingOn(func(transport.Addr) transport.Network { return net }, nodeIDs, addrs, cfg)
}

// BuildRingOn is BuildRing for partitioned networks: netFor maps each
// address to the Network that node must attach to (a shard view of a
// transport.ShardedSim, or a constant for the single-engine case).
// Every per-node environment interaction — clock, timers, randomness —
// goes through that node's own network.
func BuildRingOn(netFor func(transport.Addr) transport.Network, nodeIDs []ids.ID, addrs []transport.Addr, cfg Config) ([]*Node, error) {
	if len(nodeIDs) != len(addrs) {
		return nil, fmt.Errorf("dht: %d ids but %d addrs", len(nodeIDs), len(addrs))
	}
	if len(nodeIDs) == 0 {
		return nil, fmt.Errorf("dht: empty ring")
	}
	seen := make(map[ids.ID]bool, len(nodeIDs))
	for _, id := range nodeIDs {
		if seen[id] {
			return nil, fmt.Errorf("dht: duplicate node ID %v", id)
		}
		seen[id] = true
	}

	type pair struct {
		id   ids.ID
		addr transport.Addr
	}
	pairs := make([]pair, len(nodeIDs))
	for i := range nodeIDs {
		pairs[i] = pair{nodeIDs[i], addrs[i]}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].id < pairs[j].id })

	nodes := make([]*Node, len(pairs))
	for i, p := range pairs {
		nodes[i] = NewNode(netFor(p.addr), p.id, p.addr, cfg)
	}
	n := len(nodes)
	for i, nd := range nodes {
		r := nd.cfg.LeafsetRadius
		if r > n-1 {
			r = n - 1
		}
		for k := 1; k <= r; k++ {
			nd.merge(nodes[(i+k)%n].self, nodes[(i-k+n)%n].self)
		}
	}
	for _, nd := range nodes {
		nd.active = true
		nd.startTimers()
	}
	return nodes, nil
}

// CheckRing verifies global ring consistency: node i's successor must
// be node i+1 and predecessor node i-1 (nodes given in ID order). It
// returns a descriptive error on the first violation.
func CheckRing(nodes []*Node) error {
	n := len(nodes)
	if n < 2 {
		return nil
	}
	for i, nd := range nodes {
		wantSucc := nodes[(i+1)%n].self
		wantPred := nodes[(i-1+n)%n].self
		if got := nd.Successor(); got.ID != wantSucc.ID {
			return fmt.Errorf("node %v: successor %v, want %v", nd.self, got, wantSucc)
		}
		if got := nd.Predecessor(); got.ID != wantPred.ID {
			return fmt.Errorf("node %v: predecessor %v, want %v", nd.self, got, wantPred)
		}
	}
	return nil
}

// SortByID orders a node slice by ring ID ascending (in place) and
// returns it; convenient after churn changes membership.
func SortByID(nodes []*Node) []*Node {
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].self.ID < nodes[j].self.ID })
	return nodes
}
