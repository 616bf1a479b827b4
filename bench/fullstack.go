package main

import (
	"math/rand"
	"sort"

	"p2ppool/internal/alm"
	"p2ppool/internal/bandwidth"
	"p2ppool/internal/coords"
	"p2ppool/internal/core"
	"p2ppool/internal/dataplane"
	"p2ppool/internal/dht"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/faultnet"
	"p2ppool/internal/invariant"
	"p2ppool/internal/netmodel"
	"p2ppool/internal/sched"
	"p2ppool/internal/somo"
	"p2ppool/internal/topology"
	"p2ppool/internal/transport"
)

// member is one host's live protocol stack, wired as core.BuildLive
// wires it.
type member struct {
	node   *dht.Node
	est    *coords.Estimator
	prober *bandwidth.Prober
	agent  *somo.Agent
}

// runFullstack is the whole chain on one pool: a transit-stub topology,
// a DHT ring over a fault layer, coordinate estimators and packet-pair
// probers feeding core.Status reports into SOMO — and, after a
// convergence phase, an admission service whose planner inputs (degree
// bounds, coordinates, uplink estimates) come only from the SOMO root
// snapshot, a pump per admitted session, and crashes injected beneath
// the ring and detected by it. op = sessions + expected (member,
// chunk) pairs; refused = rejected + shed + late + lost.
func runFullstack(e *env) (*outcome, error) {
	sz := e.sz.Full
	n := sz.Hosts
	o := newOutcome()
	converge := eventsim.Time(sz.ConvergeS) * eventsim.Second
	serveEnd := converge + eventsim.Time(sz.ServeS)*eventsim.Second
	const (
		playout = 3 * eventsim.Second
		chunks  = 10
		// A crash is seen after FailureTimeout (4 s) plus a heartbeat and
		// a tick; a dead host may linger in trees that long.
		repairLag = 8 * eventsim.Second
	)

	// --- set-up: underlay, capacities, the ring and its protocol stacks ---
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
	degrees := alm.PaperDegrees(n, rand.New(rand.NewSource(poolSeed+2)))
	r := rand.New(rand.NewSource(e.seed + 2))
	lat := e.countLatency(net.Latency)
	engine := eventsim.New(e.seed + 5)
	// Two ports on one engine and one clock: the ring's and the data
	// plane's. Each host has one handler per port.
	ringSim := transport.NewSim(engine, transport.SimOptions{Latency: transport.LatencyFunc(lat), Bottleneck: model.PathBottleneck})
	dataSim := transport.NewSim(engine, transport.SimOptions{Latency: transport.LatencyFunc(lat)})
	f := faultnet.New(ringSim, faultnet.Options{Seed: e.seed * 100})
	ringNet := timed(f, e.tr, kDHTHandler, kDHTTimer)
	addrs := make([]transport.Addr, n)
	for i := range addrs {
		addrs[i] = transport.Addr(i)
	}
	var nodes []*dht.Node
	e.tr.span(kDHTBuild, func() {
		nodes, err = dht.BuildRing(ringNet, dht.RandomIDs(n, r), addrs, dht.Config{LeafsetRadius: sz.LeafsetRadius})
	})
	if err != nil {
		return nil, err
	}
	hosts := make([]member, n) // by host index
	for _, nd := range nodes {
		nd := nd
		h := int(nd.Self().Addr)
		m := &hosts[h]
		m.node = nd
		bracketGossip(nd, e.tr, kCoordsSetup, kCoordsRefine, func() {
			m.est = coords.NewEstimator(nd, coords.EstimatorOptions{Dim: 7, Seed: e.seed + int64(100+h)})
		})
		bracketHandlers(nd, e.tr, kBandwidthSetup, kBandwidthProbe, false, func() {
			m.prober = bandwidth.NewProber(nd, bandwidth.ProberOptions{})
		})
		bracketHandlers(nd, e.tr, kSomoSetup, kSomoHandler, true, func() {
			m.agent = somo.NewAgent(nd, somo.Config{}, func() interface{} {
				return core.Status{Host: h, Coord: m.est.Coord(), UpKbps: m.prober.UpEstimate(),
					DownKbps: m.prober.DownEstimate(), DegreeBound: degrees[h]}
			})
		})
	}
	up := make([]float64, n)
	down := make([]float64, n)
	for h := range up {
		up[h], down[h] = model.Up(h), model.Down(h)
	}
	plane := dataplane.NewPlane(timed(dataSim, e.tr, kDataplaneHandler, kDataplaneTimer), up, down)
	plane.Attach(n)
	crashed := func(h int) bool { return f.Crashed(transport.Addr(h)) }
	pp := &pumps{e: e, o: o, plane: plane, now: engine.Now, kbps: sz.Kbps,
		alive: func(h int) bool { return !crashed(h) }, up: func(h int) float64 { return up[h] }}

	// The SOMO root, wherever the ring currently puts it.
	findRoot := func() *somo.Agent {
		for h := range hosts {
			if a := hosts[h].agent; !crashed(h) && a.Node().Active() && a.IsRoot() {
				return a
			}
		}
		return nil
	}
	// The planner's whole knowledge of the pool: what the last root
	// snapshot said. Hosts it has never mentioned have bound 0 and no
	// measured capacity.
	view := struct {
		bounds   []int
		coords   []coords.Vector
		up, down []float64
	}{make([]int, n), make([]coords.Vector, n), make([]float64, n), make([]float64, n)}
	for h := range view.coords {
		view.coords[h] = make(coords.Vector, 7)
	}
	// refresh re-reads the root snapshot into the view. The degree bounds
	// fix the scheduler's ledger when the service starts, so only that
	// first read sets them.
	refresh := func(withBounds bool) int {
		root := findRoot()
		if root == nil {
			return 0
		}
		var snap somo.Snapshot
		e.tr.span(kSomoQuery, func() { root.Query(func(s somo.Snapshot) { snap = s }) })
		for _, rec := range snap.Records {
			st, ok := rec.Data.(core.Status)
			if !ok {
				continue
			}
			view.coords[st.Host], view.up[st.Host], view.down[st.Host] = st.Coord, st.UpKbps, st.DownKbps
			if withBounds {
				b := uplinkDegree(st.UpKbps, sz.Kbps)
				if st.DegreeBound < b {
					b = st.DegreeBound
				}
				view.bounds[st.Host] = b
			}
		}
		return len(snap.Records)
	}

	// Pre-drawn arrivals and crashes over the service phase. A session
	// streams `chunks` one-second chunks starting a second after it is
	// admitted and ends once the last has played out; arrivals stop early
	// enough for the last session to finish inside the window. A host
	// takes part in one session at a time (a user is in one conference),
	// so rosters avoid hosts an earlier session may still hold.
	life := eventsim.Time(chunks+2)*eventsim.Second + playout
	arng := rand.New(rand.NewSource(e.seed*1000 + 3))
	var arrivals []arrival
	busyUntil := make([]eventsim.Time, n)
	for i, at := range poisson(arng, sz.RatePerS, 0, eventsim.Time(sz.ServeS)*eventsim.Second-life-eventsim.Second) {
		var roster []int
		for _, h := range arng.Perm(n) {
			if len(roster) < sz.Groups[i%2] && busyUntil[h] <= at {
				roster = append(roster, h)
				busyUntil[h] = at + life
			}
		}
		if len(roster) < 2 {
			continue // every host is spoken for; the sizes never get here
		}
		arrivals = append(arrivals, arrival{at: at, id: sched.SessionID(i + 1), pri: i%sched.NumClasses + 1, root: roster[0], members: roster[1:]})
	}
	crashes := drawCrashes(rand.New(rand.NewSource(e.seed*1000+7)), sz.CrashPerMin, converge+2*eventsim.Second, serveEnd-repairLag,
		func(r *rand.Rand) int { return r.Intn(n) })

	// --- timed: converge, then serve ---
	e.startTimed()
	visible := -1.0
	for t := eventsim.Second; t <= converge; t += eventsim.Second {
		e.tr.span(kEventsimRun, func() { engine.RunUntil(t) })
		if root := findRoot(); visible < 0 && root != nil && len(root.RootSnapshot().Records) == n {
			visible = float64(engine.Now())
		}
	}
	seen := refresh(true)
	trueLat := alm.LatencyFunc(lat)
	sv := sched.NewService(view.bounds, trueLat, sched.ServiceConfig{
		Sched: sched.Config{
			ScoreLatency:    func(a, b int) float64 { return coords.Dist(view.coords[a], view.coords[b]) },
			MetricScore:     true,
			HelperMinDegree: 2,
		},
		Seed: e.seed*10 + 5,
	})
	ctl := newControl(e, o, sv, engine.Now, crashed)
	ctl.sessionsAreOps = true
	var gains []float64
	ctl.admitted = func(id sched.SessionID, s *sched.Session) {
		// The paper's headline for this plan: height against plain AMCast
		// on the same roster, both on true latencies.
		prob := alm.Problem{Root: s.Root, Members: s.Members, Latency: trueLat, Degree: func(v int) int { return view.bounds[v] }}
		var base *alm.Tree
		var err error
		e.tr.span(kAlmAMCast, func() { base, err = alm.AMCast(prob) })
		if err == nil {
			gains = append(gains, alm.Improvement(base.MaxHeight(trueLat), s.Tree.MaxHeight(trueLat)))
		}
		start := engine.Now() + eventsim.Second
		pp.start(sv, id, s.Root, append([]int(nil), s.Members...), start, chunks, e.seed*10000+int64(id))
		engine.At(start+eventsim.Time(chunks)*eventsim.Second+playout+100*eventsim.Millisecond, func() { ctl.end(id) })
	}
	for _, a := range arrivals {
		a := a
		engine.At(converge+a.at, func() {
			// The roster as the task manager sees it: hosts that are up and
			// whose published downlink carries the stream (the capability
			// check a player makes), sourced at the best published uplink.
			var roster []int
			best := 0
			for _, h := range append([]int{a.root}, a.members...) {
				if crashed(h) || view.down[h] < sz.Kbps {
					continue
				}
				if len(roster) > 0 && view.up[h] > view.up[roster[best]] {
					best = len(roster)
				}
				roster = append(roster, h)
			}
			if len(roster) < 2 {
				return
			}
			roster[0], roster[best] = roster[best], roster[0]
			ctl.submit(&sched.Session{ID: a.id, Priority: a.pri, Root: roster[0], Members: roster[1:]})
		})
	}

	// Crashes land beneath the ring: the fault layer drops the victim's
	// traffic on both ports and its processes die. Nothing tells the
	// scheduler; the victim's ring successor has to notice.
	type undetected struct {
		at      eventsim.Time
		id      dht.Entry
		watcher int
	}
	missing := make(map[int]*undetected)
	downSince := make(map[int]eventsim.Time)
	f.OnCrash(func(a transport.Addr) {
		h := int(a)
		m := hosts[h]
		missing[h] = &undetected{at: engine.Now(), id: m.node.Self(), watcher: int(m.node.Successor().Addr)}
		downSince[h] = engine.Now()
		m.agent.Stop()
		m.prober.Stop()
		m.node.Stop()
		dataSim.SetDown(a, true)
	})
	for _, c := range crashes {
		f.CrashAt(c.at, transport.Addr(c.victim))
	}
	detect := func() {
		victims := make([]int, 0, len(missing))
		for h := range missing {
			victims = append(victims, h)
		}
		sort.Ints(victims)
		for _, h := range victims {
			u := missing[h]
			for crashed(u.watcher) {
				u.watcher = int(hosts[u.watcher].node.Successor().Addr)
			}
			held := false
			for _, en := range hosts[u.watcher].node.Leafset() {
				if en.ID == u.id.ID {
					held = true
				}
			}
			if !held {
				delete(missing, h)
				ctl.nodeFailed(h, u.at)
			}
		}
	}
	world := &invariant.World{
		Nodes:  make([]*dht.Node, n),
		Agents: make([]*somo.Agent, n),
		Down:   crashed,
		DownSince: func(h int) (eventsim.Time, bool) {
			t, ok := downSince[h]
			return t, ok
		},
		Sched:     sv.Scheduler(),
		Bounds:    view.bounds,
		RepairLag: repairLag,
	}
	for h := range hosts {
		world.Nodes[h], world.Agents[h] = hosts[h].node, hosts[h].agent
	}
	sw := &sweeper{e: e, o: o, reg: invariant.NewRegistry(), world: world}
	report := somo.DefaultConfig().ReportInterval
	for t := converge + tickEvery; t <= serveEnd; t += tickEvery {
		t := t
		engine.At(t, func() {
			ctl.tick()
			detect()
			if int64(t-converge)%int64(report) == 0 {
				refresh(false)
			}
			if int64(t-converge)%int64(sweepEvery) == 0 {
				sw.sweep(t)
			}
		})
	}
	e.tr.span(kEventsimRun, func() { engine.RunUntil(serveEnd + eventsim.Second) })
	var final somo.Snapshot
	if root := findRoot(); root != nil {
		e.tr.span(kSomoQuery, func() { root.Query(func(s somo.Snapshot) { final = s }) })
	}
	pp.harvest()
	e.stopTimed()

	// --- harvest and checks ---
	o.events = engine.Processed()
	ctl.harvest()
	sw.harvest()
	if visible < 0 {
		o.fail("root snapshot covered %d of %d hosts by the end of convergence", seen, n)
		visible = float64(converge)
	}
	staleness := 0.0
	for _, rec := range final.Records {
		if crashed(int(rec.Source.Addr)) {
			continue // a dead host's last record ages until its TTL; not staleness
		}
		if age := float64(final.Time - rec.Time); age > staleness {
			staleness = age
		}
	}
	var live []*dht.Node
	var hb, failures, probes, reports, refines uint64
	depth := 0
	for h, m := range hosts {
		st := m.node.Stats()
		hb += st.HeartbeatsSent
		failures += st.Failures
		probes += st.SuspectProbes
		reports += m.agent.ReportsSent()
		refines += m.est.Updates()
		if !crashed(h) {
			live = append(live, m.node)
			if l := m.agent.Representative().Level; l > depth {
				depth = l
			}
		}
	}
	if err := dht.CheckRing(dht.SortByID(live)); err != nil {
		o.fail("dht.CheckRing: %v", err)
	}
	for h := range missing {
		o.fail("crash of host %d was never detected by the ring", h)
	}
	for _, s := range sv.Scheduler().Sessions() {
		checkTree(o, "final tree", s.Tree, func(v int) int { return view.bounds[v] })
	}
	sum := 0.0
	for _, g := range gains {
		sum += g
	}
	if len(gains) > 0 {
		o.exact["height_gain"] = sum / float64(len(gains))
	}
	ctr := f.Counters()
	rs, ds := ringSim.Stats(), dataSim.Stats()
	o.exact["somo_visible_ms"] = visible
	o.exact["somo_staleness_ms"] = staleness
	o.exact["dht.heartbeats"] = float64(hb)
	o.exact["dht.failures"] = float64(failures)
	o.exact["dht.suspect_probes"] = float64(probes)
	o.exact["somo.reports"] = float64(reports)
	o.exact["somo.depth"] = float64(depth)
	o.exact["coords.refines"] = float64(refines)
	o.exact["eventsim.events"] = float64(o.events)
	o.exact["faultnet.crashes"] = float64(ctr.Crashes)
	o.exact["faultnet.crash_drops"] = float64(ctr.CrashDrops)
	o.exact["transport.msgs"] = float64(rs.MessagesSent + ds.MessagesSent)
	o.exact["transport.bytes"] = float64(rs.BytesSent + ds.BytesSent)
	o.exact["transport.dropped"] = float64(rs.MessagesDropped + ds.MessagesDropped)
	return o, nil
}
