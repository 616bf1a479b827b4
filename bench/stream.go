package main

import (
	"fmt"
	"math/rand"
	"time"

	"p2ppool/internal/alm"
	"p2ppool/internal/bandwidth"
	"p2ppool/internal/dataplane"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/faultnet"
	"p2ppool/internal/netmodel"
	"p2ppool/internal/sched"
	"p2ppool/internal/transport"
)

// uplinkDegrees turns uplink estimates into degree bounds for one
// bitrate: how many concurrent chunk flows the uplink sustains with
// 1.3x headroom per child (a relay packed to 100% never drains its
// backlog), clamped to [1, 16] — the streaming study's policy.
func uplinkDegree(upKbps, rateKbps float64) int {
	d := int(upKbps/(1.3*rateKbps)) + 1
	if d < 1 {
		d = 1
	}
	if d > 16 {
		d = 16
	}
	return d
}

// pumps runs the data-plane side of a workload: one pump per admitted
// session over a shared Plane, with the outcome partition checked and
// summed when the run ends.
type pumps struct {
	e     *env
	o     *outcome
	plane *dataplane.Plane
	now   func() eventsim.Time
	alive func(int) bool
	up    func(int) float64
	kbps  float64

	list   []*dataplane.Pump
	ids    []int
	bounds float64
}

// start begins pumping session id over whatever tree the scheduler
// currently holds for it; the first chunk leaves at virtual time at.
func (p *pumps) start(sv *sched.Service, id sched.SessionID, root int, members []int, at eventsim.Time, chunks int, seed int64) {
	treeOf := func() *alm.Tree {
		if live := sv.Scheduler().Session(id); live != nil {
			return live.Tree
		}
		return nil
	}
	began := time.Now()
	var pump *dataplane.Pump
	var err error
	p.e.tr.span(kDataplaneStart, func() {
		pump, err = p.plane.StartPump(int(id), root, members, treeOf, p.alive, at, dataplane.Config{
			BitrateKbps:   p.kbps,
			Playout:       3 * eventsim.Second,
			Chunks:        chunks,
			PullNeighbors: 4,
			Seed:          seed,
		})
	})
	if err != nil {
		p.o.fail("StartPump(%d): %v", id, err)
		return
	}
	p.e.life.step(int(id), "dataplane.start", p.now(), at, time.Since(began), "")
	p.list = append(p.list, pump)
	p.ids = append(p.ids, int(id))
	ups := make([]float64, len(members))
	for i, m := range members {
		ups[i] = p.up(m)
	}
	p.bounds += dataplane.CapacityBound(p.up(root), ups)
}

// harvest finalizes every pump, checks that its four outcome buckets
// sum to what was expected, and reports the delivery metrics. It adds
// the expected pairs to ops and the late and lost ones to refused.
func (p *pumps) harvest() {
	o := p.o
	var tot dataplane.Stats
	for i, pump := range p.list {
		var st dataplane.Stats
		began := time.Now()
		p.e.tr.span(kDataplaneFinalize, func() { st = pump.Finalize() })
		p.e.life.step(p.ids[i], "dataplane.finalize", p.now(), p.now(), time.Since(began),
			fmt.Sprintf("ontime %d/%d", st.OnTimeTree+st.PullRecovered, st.Expected))
		if got := st.OnTimeTree + st.PullRecovered + st.Late + st.Lost; got != st.Expected {
			o.fail("pump %d: outcome buckets sum to %d, expected %d", p.ids[i], got, st.Expected)
		}
		for _, v := range []int{st.Expected, st.OnTimeTree, st.PullRecovered, st.Late, st.Lost, st.Duplicates, st.PullsSent} {
			o.hash.int(v)
		}
		o.hash.u64(st.SourceTxBytes)
		o.hash.u64(st.TotalTxBytes)
		tot.Expected += st.Expected
		tot.OnTimeTree += st.OnTimeTree
		tot.PullRecovered += st.PullRecovered
		tot.Late += st.Late
		tot.Lost += st.Lost
		tot.TreeMisses += st.TreeMisses
		tot.Duplicates += st.Duplicates
		tot.PullsSent += st.PullsSent
		tot.SourceTxBytes += st.SourceTxBytes
		tot.TotalTxBytes += st.TotalTxBytes
	}
	o.ops += int64(tot.Expected)
	o.refused += int64(tot.Late + tot.Lost)
	if tot.Expected > 0 {
		o.exact["ontime_frac"] = tot.OnTimeFraction()
		o.exact["delivered_kbps"] = p.kbps * tot.OnTimeFraction()
	}
	if len(p.list) > 0 {
		o.exact["capacity_bound_kbps"] = p.bounds / float64(len(p.list))
	}
	chunkBytes := p.kbps * float64(eventsim.Second) / 8
	transfers := float64(tot.TotalTxBytes) / chunkBytes
	o.exact["dataplane.transfers"] = transfers
	o.exact["dataplane.pulls"] = float64(tot.PullsSent)
	if transfers > 0 {
		o.exact["dataplane.dup_frac"] = float64(tot.Duplicates) / transfers
	}
	if tot.TreeMisses > 0 {
		o.exact["dataplane.pull_recovered_frac"] = float64(tot.PullRecovered) / float64(tot.TreeMisses)
	}
	o.exact["dataplane.source_offload"] = tot.SourceOffload()
}

// runStream is the data-plane workload: sessions admitted once on a
// synthetic world, then a live 600 kbps pump each, member churn with
// scheduler repairs swapping trees mid-stream, mesh-pull on. op =
// expected (member, chunk); refused = late + lost.
func runStream(e *env) (*outcome, error) {
	sz := e.sz.Stream
	o := newOutcome()
	const (
		pumpStart    = 2 * eventsim.Second
		playout      = 3 * eventsim.Second
		detect       = 800 * eventsim.Millisecond
		restartAfter = 10 * eventsim.Second
	)
	streamEnd := pumpStart + eventsim.Time(sz.Chunks)*eventsim.Second + playout
	runEnd := streamEnd + 10*eventsim.Second

	// --- set-up: world, capacities, bandwidth estimates, rosters ---
	lat := e.countLatency(synthWorld(sz.Hosts, rand.New(rand.NewSource(poolSeed+2))))
	var model *netmodel.Model
	var err error
	e.tr.span(kNetmodelBuild, func() { model, err = netmodel.New(sz.Hosts, netmodel.Options{Seed: poolSeed + 3}) })
	if err != nil {
		return nil, err
	}
	leafs := ringLeafsets(sz.Hosts, 16, rand.New(rand.NewSource(poolSeed+4)))
	var est []bandwidth.Estimates
	e.tr.span(kBandwidthEstimate, func() { est = bandwidth.EstimateAll(model, leafs, 1500, nil) })
	degrees := make([]int, sz.Hosts)
	up := make([]float64, sz.Hosts)
	down := make([]float64, sz.Hosts)
	var eligible []int
	for h := range degrees {
		degrees[h] = uplinkDegree(est[h].Up, sz.Kbps)
		up[h], down[h] = model.Up(h), model.Down(h)
		// Subscribers must be able to receive the rendition at all — the
		// capability check every player makes before requesting it.
		if est[h].Down >= sz.Kbps {
			eligible = append(eligible, h)
		}
	}
	need := sz.Sessions * (sz.Members + 1)
	if need > len(eligible) {
		return nil, fmt.Errorf("stream: %d roster slots but only %d hosts can receive %.0f kbps", need, len(eligible), sz.Kbps)
	}
	engine := eventsim.New(e.seed)
	sim := transport.NewSim(engine, transport.SimOptions{Latency: transport.LatencyFunc(lat)})
	f := faultnet.New(sim, faultnet.Options{Seed: e.seed * 100})
	sv := sched.NewService(degrees, lat, sched.ServiceConfig{
		Sched: sched.Config{ScoreLatency: lat, MetricScore: true, HelperMinDegree: 2},
		Seed:  e.seed*10 + 5,
	})
	ctl := newControl(e, o, sv, engine.Now, func(h int) bool { return f.Crashed(transport.Addr(h)) })
	plane := dataplane.NewPlane(timed(f, e.tr, kDataplaneHandler, kDataplaneTimer), up, down)
	plane.Attach(sz.Hosts)
	pp := &pumps{e: e, o: o, plane: plane, now: engine.Now, kbps: sz.Kbps,
		alive: func(h int) bool { return !f.Crashed(transport.Addr(h)) },
		up:    func(h int) float64 { return up[h] }}

	// Disjoint rosters; each session's source is its best estimated
	// uplink (the planner's knowledge, not ground truth).
	perm := rand.New(rand.NewSource(e.seed*1000 + 3)).Perm(len(eligible))
	var churnPool []int
	type sess struct {
		id      sched.SessionID
		root    int
		members []int
	}
	sessions := make([]sess, sz.Sessions)
	for s := range sessions {
		roster := make([]int, sz.Members+1)
		best := 0
		for i := range roster {
			roster[i] = eligible[perm[s*(sz.Members+1)+i]]
			if est[roster[i]].Up > est[roster[best]].Up {
				best = i
			}
		}
		roster[0], roster[best] = roster[best], roster[0]
		sessions[s] = sess{id: sched.SessionID(s + 1), root: roster[0], members: roster[1:]}
		churnPool = append(churnPool, roster[1:]...)
	}
	for _, s := range sessions {
		s := s
		pri := int(s.id-1)%sched.NumClasses + 1
		engine.At(100*eventsim.Millisecond, func() {
			ctl.submit(&sched.Session{ID: s.id, Priority: pri, Root: s.root, Members: append([]int(nil), s.members...)})
		})
	}
	engine.At(pumpStart-eventsim.Millisecond, func() {
		for i, s := range sessions {
			pp.start(sv, s.id, s.root, s.members, pumpStart, sz.Chunks, e.seed*10000+int64(i))
		}
	})
	for t := tickEvery; t <= runEnd; t += tickEvery {
		engine.At(t, ctl.tick)
	}
	// Churn hits streaming members only (crashing an idle pool host
	// exercises nothing) and spares sources (a dead source just ends the
	// stream).
	f.OnCrash(func(a transport.Addr) {
		at := engine.Now()
		engine.Schedule(detect, func() {
			if f.Crashed(a) {
				ctl.nodeFailed(int(a), at)
			}
		})
	})
	f.OnRestart(func(a transport.Addr) { sv.NodeRecovered(engine.Now(), int(a)) })
	for _, c := range drawCrashes(rand.New(rand.NewSource(e.seed*1000+7)), sz.CrashPerMin, pumpStart+3*eventsim.Second, streamEnd-playout,
		func(r *rand.Rand) int { return churnPool[r.Intn(len(churnPool))] }) {
		f.CrashAt(c.at, transport.Addr(c.victim))
		f.RestartAt(c.at+restartAfter, transport.Addr(c.victim))
	}

	// --- timed ---
	e.startTimed()
	e.tr.span(kEventsimRun, func() { engine.RunUntil(runEnd) })
	pp.harvest()
	e.stopTimed()

	// --- harvest and checks ---
	o.events = engine.Processed()
	ctl.harvest()
	for _, s := range sv.Scheduler().Sessions() {
		for _, st := range s.Trees() {
			checkTree(o, fmt.Sprintf("session %d final tree", s.ID), st.Tree, func(v int) int { return degrees[v] })
		}
	}
	if len(pp.list) != len(sessions) {
		o.fail("%d of %d pumps started", len(pp.list), len(sessions))
	}
	ctr := f.Counters()
	ts := sim.Stats()
	o.exact["eventsim.events"] = float64(o.events)
	o.exact["faultnet.crashes"] = float64(ctr.Crashes)
	o.exact["faultnet.crash_drops"] = float64(ctr.CrashDrops)
	o.exact["transport.msgs"] = float64(ts.MessagesSent)
	o.exact["transport.bytes"] = float64(ts.BytesSent)
	o.exact["transport.dropped"] = float64(ts.MessagesDropped)
	return o, nil
}
