package main

import (
	"math/rand"
	"time"

	"p2ppool/internal/bandwidth"
	"p2ppool/internal/coords"
	"p2ppool/internal/dht"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/netmodel"
	"p2ppool/internal/somo"
	"p2ppool/internal/topology"
	"p2ppool/internal/transport"
)

// runRing is the protocol-only workload: the pool's members are built
// the way core.BuildFast builds them — but through each layer's own
// exported constructor, so set-up time splits by layer — then a DHT
// ring with one SOMO agent per node runs on the sharded event loop with
// no sessions at all. op = engine event; refused = live hosts missing
// from the final root snapshot.
func runRing(e *env) (*outcome, error) {
	sz := e.sz.Ring
	n := sz.Hosts
	o := newOutcome()

	// --- set-up: topology, capacities, coordinates, bandwidth estimates ---
	top := topology.DefaultConfig()
	top.Hosts = n
	top.Seed = poolSeed
	top.Workers = e.workers
	var net *topology.Network
	var model *netmodel.Model
	var err error
	e.tr.span(kTopologyBuild, func() { net, err = topology.Generate(top) })
	if err != nil {
		return nil, err
	}
	e.tr.span(kNetmodelBuild, func() { model, err = netmodel.New(n, netmodel.Options{Seed: poolSeed + 1}) })
	if err != nil {
		return nil, err
	}
	leafs := ringLeafsets(n, 32, rand.New(rand.NewSource(poolSeed+2)))
	var cs []coords.Vector
	e.tr.span(kCoordsSolve, func() {
		cs, err = coords.SolveLeafset(net.Latency, n, leafs, coords.LeafsetConfig{Dim: 7, Rounds: 15, Seed: poolSeed + 3, Core: 33})
	})
	if err != nil {
		return nil, err
	}
	var est []bandwidth.Estimates
	e.tr.span(kBandwidthEstimate, func() {
		est = bandwidth.EstimateAll(model, leafs, 1500, rand.New(rand.NewSource(poolSeed+4)))
	})
	// The ring itself uses neither; they are the pool database a planner
	// would read, and hashing them keeps the set-up honest.
	for h := 0; h < n; h++ {
		for _, x := range cs[h] {
			o.hash.f64(x)
		}
		o.hash.f64(est[h].Up)
		o.hash.f64(est[h].Down)
	}

	// --- set-up: the ring on the sharded loop, one SOMO agent per node ---
	sim := transport.NewShardedSim(transport.ShardedSimOptions{
		Latency:   net.Latency,
		Shards:    sz.Shards,
		Lookahead: eventsim.Time(2 * top.LastHopMin),
		Workers:   e.workers,
		Seed:      e.seed + 5,
	})
	// One tracer per shard: shards advance concurrently between barriers.
	shardTr := make([]*tracer, sz.Shards)
	views := make([]transport.Network, sz.Shards)
	for i := range views {
		if e.tr != nil {
			shardTr[i] = newTracer()
		}
		views[i] = timed(sim.View(transport.Addr(i)), shardTr[i], kDHTHandler, kDHTTimer)
	}
	view := func(a transport.Addr) transport.Network { return views[int(a)%sz.Shards] }
	idList := dht.RandomIDs(n, rand.New(rand.NewSource(e.seed+6)))
	addrs := make([]transport.Addr, n)
	for i := range addrs {
		addrs[i] = transport.Addr(i)
	}
	var nodes []*dht.Node
	e.tr.span(kDHTBuild, func() {
		nodes, err = dht.BuildRingOn(view, idList, addrs, dht.Config{LeafsetRadius: sz.LeafsetRadius})
	})
	if err != nil {
		return nil, err
	}
	cfg := somo.Config{ReportInterval: eventsim.Time(sz.ReportS * float64(eventsim.Second))}
	agents := make([]*somo.Agent, n)
	for i, nd := range nodes {
		i, nd := i, nd
		tr := shardTr[int(nd.Self().Addr)%sz.Shards]
		bracketHandlers(nd, tr, kSomoSetup, kSomoHandler, true, func() {
			agents[i] = somo.NewAgent(nd, cfg, func() interface{} { return i })
		})
	}
	var root *somo.Agent
	for _, a := range agents {
		if a.IsRoot() {
			root = a
		}
	}

	// --- timed: run the ring, polling the root once per virtual second ---
	e.startTimed()
	visible := -1.0
	runCPU := 0.0
	for t := 1; t <= sz.VirtualS; t++ {
		c0 := cpuSeconds()
		e.tr.span(kEventsimRun, func() { sim.RunUntil(eventsim.Time(t) * eventsim.Second) })
		runCPU += cpuSeconds() - c0
		if visible < 0 && root != nil && len(root.RootSnapshot().Records) == n {
			visible = float64(sim.Now())
		}
	}
	var snap somo.Snapshot
	if root != nil {
		e.tr.span(kSomoQuery, func() { root.Query(func(s somo.Snapshot) { snap = s }) })
	}
	e.stopTimed()
	if e.tr != nil {
		// The shards' callbacks ran on worker goroutines, outside the
		// main tracer's stack: what RunUntil cost beyond them is the
		// loop's own (engine, transport, barriers) — in CPU time, since
		// shards overlap in wall time.
		callbacks := 0.0
		for _, st := range shardTr {
			e.tr.merge(st)
			callbacks += st.rootTotal.Seconds()
		}
		self := runCPU - callbacks
		if self < 0 {
			self = 0
		}
		e.tr.acc[kEventsimRun].Self = time.Duration(self * float64(time.Second))
	}

	// --- harvest and checks ---
	o.events = sim.Processed()
	o.ops = int64(o.events)
	o.refused = int64(n - len(snap.Records))
	if root == nil {
		o.fail("no SOMO root")
	}
	if visible < 0 {
		o.fail("root snapshot never covered all %d hosts (has %d)", n, len(snap.Records))
		visible = float64(sim.Now())
	}
	staleness, depth := 0.0, 0
	for _, rec := range snap.Records {
		if age := float64(snap.Time - rec.Time); age > staleness {
			staleness = age
		}
		o.hash.int(int(rec.Source.Addr))
		o.hash.f64(float64(rec.Time))
	}
	var hb, failures, probes, reports uint64
	for i, nd := range nodes {
		st := nd.Stats()
		hb += st.HeartbeatsSent
		failures += st.Failures
		probes += st.SuspectProbes
		reports += agents[i].ReportsSent()
		if l := agents[i].Representative().Level; l > depth {
			depth = l
		}
	}
	if err := dht.CheckRing(nodes); err != nil {
		o.fail("dht.CheckRing: %v", err)
	}
	ts := sim.Stats()
	o.exact["somo_visible_ms"] = visible
	o.exact["somo_staleness_ms"] = staleness
	o.exact["dht.heartbeats"] = float64(hb)
	o.exact["dht.failures"] = float64(failures)
	o.exact["dht.suspect_probes"] = float64(probes)
	o.exact["somo.reports"] = float64(reports)
	o.exact["somo.depth"] = float64(depth)
	o.exact["eventsim.events"] = float64(o.events)
	o.exact["transport.msgs"] = float64(ts.MessagesSent)
	o.exact["transport.bytes"] = float64(ts.BytesSent)
	o.exact["transport.dropped"] = float64(ts.MessagesDropped)
	return o, nil
}
