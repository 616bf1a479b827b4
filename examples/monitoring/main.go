// Monitoring demonstrates the SOMO side of the pool on the
// discrete-event engine: a full protocol stack (DHT heartbeats, SOMO
// gather, coordinate estimation, packet-pair probing) runs in virtual
// time, the global view assembles at the root in O(log_k N) flows, a
// node crash heals, and the self-optimizing root swap moves the SOMO
// root onto the most capable machine (Section 3.2).
//
//	go run ./examples/monitoring
package main

import (
	"fmt"
	"log"

	"p2ppool"
	"p2ppool/internal/core"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/topology"
)

func main() {
	top := topology.DefaultConfig()
	top.Hosts = 64
	pool, err := p2ppool.NewLive(p2ppool.LiveOptions{
		Options: p2ppool.Options{Topology: top, Seed: 21, LeafsetRadius: 6},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Watch the global view assemble as virtual time passes.
	fmt.Println("virtual time    members in SOMO root view")
	for _, t := range []eventsim.Time{5, 10, 20, 40} {
		pool.Engine.RunUntil(t * eventsim.Second)
		fmt.Printf("%10.0fs    %d/%d\n", float64(t), len(pool.Snapshot()), top.Hosts)
	}

	// The paper's cable-pull test: crash a node; the view heals and
	// the dead member expires from the snapshot.
	victim := pool.Nodes[3]
	fmt.Printf("\ncrashing node %v...\n", victim.Self())
	victim.Stop()
	pool.Sim.SetDown(victim.Self().Addr, true)
	pool.Engine.RunUntil(pool.Engine.Now() + 3*eventsim.Minute)
	fmt.Printf("after repair: %d/%d members in view (the crashed node expired)\n",
		len(pool.Snapshot()), top.Hosts)

	// Self-optimization: put the most capable machine (largest degree
	// bound here) at the SOMO root by swapping ring IDs.
	fmt.Println("\noptimizing the root placement (ID swap)...")
	swapped, err := pool.OptimizeRoot(func(h int) float64 { return float64(pool.Degrees[h]) })
	if err != nil {
		log.Fatal(err)
	}
	pool.Engine.RunUntil(pool.Engine.Now() + 2*eventsim.Minute)
	root := core.LiveRoot(pool.Agents)
	if root < 0 {
		log.Fatal("no live SOMO root after the swap")
	}
	rootHost := int(pool.Agents[root].Node().Self().Addr)
	fmt.Printf("swapped=%v; SOMO root now on host %d (degree bound %d, max in pool)\n",
		swapped, rootHost, pool.Degrees[rootHost])

	// Traffic accounting: what the self-scaling hierarchy costs.
	st := pool.Sim.Stats()
	secs := float64(pool.Engine.Now()) / 1000
	fmt.Printf("\ntraffic: %.1f msgs/node/s over %.0f virtual seconds (%d messages total)\n",
		float64(st.MessagesSent)/float64(top.Hosts)/secs, secs, st.MessagesSent)
}
