package main

import (
	"math/rand"
	"sort"
	"time"

	"p2ppool/internal/alm"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/faultnet"
	"p2ppool/internal/invariant"
	"p2ppool/internal/sched"
	"p2ppool/internal/transport"
)

// arrival is one pre-drawn session.
type arrival struct {
	at      eventsim.Time
	life    eventsim.Time
	id      sched.SessionID
	pri     int
	root    int
	members []int
}

// drawArrivals pre-draws a Poisson arrival schedule: priorities mixed
// 20/30/50, distinct rosters of the given size (root included),
// exponential lifetimes.
func drawArrivals(r *rand.Rand, hosts int, perSecond float64, window eventsim.Time, group func() int, meanLife eventsim.Time) []arrival {
	var out []arrival
	for i, at := range poisson(r, perSecond, 0, window) {
		pri := 3
		switch u := r.Float64(); {
		case u < 0.2:
			pri = 1
		case u < 0.5:
			pri = 2
		}
		roster := distinct(r, hosts, group())
		out = append(out, arrival{
			at:      at,
			life:    eventsim.Time(r.ExpFloat64() * float64(meanLife)),
			id:      sched.SessionID(i + 1),
			pri:     pri,
			root:    roster[0],
			members: roster[1:],
		})
	}
	return out
}

// crash is one pre-drawn host failure.
type crash struct {
	at     eventsim.Time
	victim int
}

func drawCrashes(r *rand.Rand, perMinute float64, from, to eventsim.Time, pick func(*rand.Rand) int) []crash {
	var out []crash
	for _, at := range poisson(r, perMinute/60, from, to) {
		out = append(out, crash{at: at, victim: pick(r)})
	}
	return out
}

// control is the part of a workload that drives a sched.Service from
// outside: it times each direct call as a span, keeps the counters the
// service does not, and records session lifecycles in the traced run.
type control struct {
	e      *env
	o      *outcome
	sv     *sched.Service
	now    func() eventsim.Time
	failed bool
	// sessionsAreOps makes each submitted session an operation (and each
	// rejected or shed one a refusal); the stream workload admits its
	// sessions as set-up and counts only chunks.
	sessionsAreOps bool

	queueMax int
	// waiting are submitted sessions not yet seen planned; admitted is
	// called once for each when its first tree appears.
	waiting  map[sched.SessionID]eventsim.Time
	admitted func(id sched.SessionID, s *sched.Session)
	// pending are detected crashes whose victim is still in some tree.
	pending  map[int]eventsim.Time
	repairMS []float64
	down     func(h int) bool
	stale    int
}

func newControl(e *env, o *outcome, sv *sched.Service, now func() eventsim.Time, down func(int) bool) *control {
	return &control{e: e, o: o, sv: sv, now: now, down: down,
		waiting: make(map[sched.SessionID]eventsim.Time), pending: make(map[int]eventsim.Time)}
}

func (c *control) submit(s *sched.Session) {
	now := c.now()
	start := time.Now()
	var d sched.Decision
	var err error
	c.e.tr.span(kSchedSubmit, func() { d, err = c.sv.Submit(now, s) })
	c.o.hash.int(int(s.ID))
	c.o.hash.int(int(d))
	if err != nil {
		c.o.fail("Submit(%d): %v", s.ID, err)
		return
	}
	c.e.life.open(int(s.ID), now)
	c.e.life.step(int(s.ID), "sched.submit", now, now, time.Since(start), d.String())
	if d == sched.Enqueued {
		c.waiting[s.ID] = now
	}
}

func (c *control) end(id sched.SessionID) {
	c.e.tr.span(kSchedEnd, func() { c.sv.EndSession(id) })
	delete(c.waiting, id)
	c.e.life.step(int(id), "sched.end", c.now(), c.now(), 0, "")
}

func (c *control) tick() {
	now := c.now()
	var err error
	c.e.tr.span(kSchedTick, func() { err = c.sv.Tick(now) })
	if err != nil && !c.failed {
		c.failed = true
		c.o.fail("Tick: %v", err)
	}
	if q := c.sv.QueueDepth(); q > c.queueMax {
		c.queueMax = q
	}
	ready := make([]sched.SessionID, 0, len(c.waiting))
	for id := range c.waiting {
		if s := c.sv.Scheduler().Session(id); s != nil && s.Tree != nil {
			ready = append(ready, id)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	for _, id := range ready {
		s, at := c.sv.Scheduler().Session(id), c.waiting[id]
		delete(c.waiting, id)
		c.e.life.step(int(id), "sched.admit_wait", at, now, 0, "admitted")
		// A plan that names a host already down was made from stale
		// knowledge; failure detection will repair it.
		for _, v := range s.Tree.Nodes() {
			if c.down != nil && c.down(v) {
				c.stale++
				break
			}
		}
		if c.admitted != nil {
			c.admitted(id, s)
		}
	}
	c.settle(now)
}

// nodeFailed reports a detected crash (crashedAt is when it happened)
// and starts the repair clock for the sessions it touched.
func (c *control) nodeFailed(host int, crashedAt eventsim.Time) {
	now := c.now()
	start := time.Now()
	var affected []sched.SessionID
	c.e.tr.span(kSchedNodeFailed, func() { affected = c.sv.NodeFailed(now, host) })
	for _, id := range affected {
		c.e.life.step(int(id), "fault.detect", crashedAt, now, 0, "")
		c.e.life.step(int(id), "sched.nodefailed", now, now, time.Since(start), "")
		c.o.hash.int(int(id))
	}
	if len(affected) > 0 {
		c.pending[host] = crashedAt
		c.settle(now)
	}
}

// settle closes the repair clock of every crash whose victim no longer
// sits in any session tree.
func (c *control) settle(now eventsim.Time) {
	if len(c.pending) == 0 {
		return
	}
	sessions := c.sv.Scheduler().Sessions()
	for host, at := range c.pending {
		clean := true
		for _, s := range sessions {
			for _, st := range s.Trees() {
				if st.Tree != nil && st.Tree.Contains(host) {
					clean = false
				}
			}
		}
		if clean {
			delete(c.pending, host)
			c.repairMS = append(c.repairMS, float64(now-at))
		}
	}
}

// harvest reads the service's own accounting into the outcome.
func (c *control) harvest() {
	o, st := c.o, c.sv.Stats()
	submitted, inSLO, shed, rejected := 0, 0, 0, 0
	for p := 1; p <= sched.NumClasses; p++ {
		cs := st.Class[p]
		submitted += cs.Submitted
		inSLO += cs.AdmittedInSLO
		rejected += cs.Rejected
		shed += cs.ShedDeadline + cs.ShedOverload + cs.ShedBudget
		o.hash.int(cs.Admitted)
		o.hash.int(cs.RootDied)
	}
	if c.sessionsAreOps {
		o.ops += int64(submitted)
		o.refused += int64(rejected + shed)
	}
	lats := c.sv.AdmitLatencies()
	for _, l := range lats {
		o.hash.f64(l)
	}
	med, pct, tail, _ := tailPercentile(lats)
	o.exact["admit_p50_ms"] = med
	o.exact["admit_p99_ms"] = tail
	o.exact["admit_tail_pct"] = pct
	if submitted > 0 {
		o.exact["slo_frac"] = float64(inSLO) / float64(submitted)
	}
	tot := c.sv.Scheduler().Totals()
	o.exact["sched.admitted"] = float64(len(lats))
	o.exact["sched.plans"] = float64(st.Plans)
	o.exact["sched.plan_failures"] = float64(st.PlanFailures)
	o.exact["sched.preempts"] = float64(tot.Preemptions)
	o.exact["sched.preempt_deferred"] = float64(st.PreemptDeferred)
	o.exact["sched.shed"] = float64(shed)
	o.exact["sched.queue_max"] = float64(c.queueMax)
	o.exact["sched.peak_live"] = float64(st.PeakLive)
	o.exact["sched.replans"] = float64(tot.Replans)
	o.exact["sched.repairs"] = float64(tot.Repairs)
	o.exact["sched.stale_plans"] = float64(c.stale)
	if len(c.repairMS) > 0 {
		o.exact["repair_ms"] = median(c.repairMS)
	}
	for _, s := range c.sv.Scheduler().Sessions() {
		for _, st := range s.Trees() {
			o.hash.tree(st.Tree)
		}
	}
	if err := c.sv.Scheduler().Registry().CheckInvariants(); err != nil {
		o.fail("Registry.CheckInvariants: %v", err)
	}
}

// sweeper runs the invariant registry's continuous checks on a period.
type sweeper struct {
	e          *env
	o          *outcome
	reg        *invariant.Registry
	world      *invariant.World
	sweeps     int
	violations int
}

func (s *sweeper) sweep(now eventsim.Time) {
	s.world.Now = now
	var vs []invariant.Violation
	s.e.tr.span(kInvariantSweep, func() { vs = s.reg.Sweep(s.world, invariant.Continuous) })
	s.sweeps++
	for _, v := range vs {
		s.violations++
		s.o.fail("invariant at t=%.1fs: %s", float64(now)/1000, v.String())
	}
}

func (s *sweeper) harvest() {
	s.o.exact["invariant.sweeps"] = float64(s.sweeps)
	s.o.exact["invariant.violations"] = float64(s.violations)
}

const (
	tickEvery  = 250 * eventsim.Millisecond
	sweepEvery = 5 * eventsim.Second
)

// runAdmit is the control-plane workload: the sustained-load study's
// steady cell rebuilt on exported APIs. op = submitted session; refused
// = rejected + shed.
func runAdmit(e *env) (*outcome, error) {
	sz := e.sz.Admit
	o := newOutcome()
	window := eventsim.Time(sz.VirtualS) * eventsim.Second
	const detect, restartAfter = 2 * eventsim.Second, 20 * eventsim.Second

	// --- set-up: world, service, pre-drawn arrivals and crashes ---
	r := rand.New(rand.NewSource(poolSeed + 2))
	lat := e.countLatency(synthWorld(sz.Hosts, r))
	degrees := alm.PaperDegrees(sz.Hosts, r)
	engine := eventsim.New(e.seed)
	sim := transport.NewSim(engine, transport.SimOptions{Latency: transport.LatencyFunc(lat)})
	f := faultnet.New(sim, faultnet.Options{Seed: e.seed * 100})
	sv := sched.NewService(degrees, lat, sched.ServiceConfig{
		Sched: sched.Config{ScoreLatency: lat, MetricScore: true},
		Seed:  e.seed*10 + 5,
		// Sized to the pool as an operator would (see the load study):
		// the stock 8/s bucket would throttle planning itself.
		PreemptRate:  16 * sz.RatePerS,
		PreemptBurst: 32 * sz.RatePerS,
	})
	ctl := newControl(e, o, sv, engine.Now, func(h int) bool { return f.Crashed(transport.Addr(h)) })
	ctl.sessionsAreOps = true
	arrivals := drawArrivals(rand.New(rand.NewSource(e.seed*1000+3)), sz.Hosts, sz.RatePerS, window,
		func() int { return sz.Group }, eventsim.Time(sz.LifetimeS*float64(eventsim.Second)))
	for _, a := range arrivals {
		a := a
		engine.At(a.at, func() {
			if f.Crashed(transport.Addr(a.root)) {
				return // the would-be source is down; the session never forms
			}
			members := make([]int, 0, len(a.members))
			for _, m := range a.members {
				if !f.Crashed(transport.Addr(m)) {
					members = append(members, m)
				}
			}
			if len(members) > 0 {
				ctl.submit(&sched.Session{ID: a.id, Priority: a.pri, Root: a.root, Members: members})
			}
		})
		engine.At(a.at+a.life, func() { ctl.end(a.id) })
	}
	downSince := make(map[int]eventsim.Time)
	f.OnCrash(func(a transport.Addr) {
		at := engine.Now()
		downSince[int(a)] = at
		engine.Schedule(detect, func() {
			if f.Crashed(a) {
				ctl.nodeFailed(int(a), at)
			}
		})
	})
	f.OnRestart(func(a transport.Addr) {
		delete(downSince, int(a))
		sv.NodeRecovered(engine.Now(), int(a))
	})
	for _, c := range drawCrashes(rand.New(rand.NewSource(e.seed*1000+7)), sz.CrashPerMin, 0, window,
		func(r *rand.Rand) int { return r.Intn(sz.Hosts) }) {
		f.CrashAt(c.at, transport.Addr(c.victim))
		f.RestartAt(c.at+restartAfter, transport.Addr(c.victim))
	}
	for t := tickEvery; t <= window; t += tickEvery {
		engine.At(t, ctl.tick)
	}
	sw := &sweeper{e: e, o: o, reg: invariant.NewRegistry(), world: &invariant.World{
		Sched:  sv.Scheduler(),
		Bounds: degrees,
		Down:   func(h int) bool { return f.Crashed(transport.Addr(h)) },
		DownSince: func(h int) (eventsim.Time, bool) {
			t, ok := downSince[h]
			return t, ok
		},
		RepairLag: detect + tickEvery + 2*eventsim.Second,
	}}
	for t := sweepEvery; t <= window; t += sweepEvery {
		engine.At(t, func() { sw.sweep(engine.Now()) })
	}

	// --- timed ---
	e.startTimed()
	e.tr.span(kEventsimRun, func() { engine.RunUntil(window + eventsim.Second) })
	e.stopTimed()

	// --- harvest and checks ---
	o.events = engine.Processed()
	ctl.harvest()
	sw.harvest()
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
