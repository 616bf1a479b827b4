package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"p2ppool/internal/alm"
	"p2ppool/internal/bandwidth"
	"p2ppool/internal/dataplane"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/faultnet"
	"p2ppool/internal/invariant"
	"p2ppool/internal/netmodel"
	"p2ppool/internal/obs"
	"p2ppool/internal/sched"
	"p2ppool/internal/transport"
)

// This file is the harness the churn studies share, in three layers:
// the fault world (engine, fault layer, crash detection, churn, down
// log and invariant sweep; no control plane) that load, stream, conf,
// chaos and audit run in; the service cell, a sched.Service on a fault
// world, that load, stream and conf drive, with the synthetic world
// they price sessions in; and the media run, the one data path stream
// and conf stream chunks through: a list of sessions, each a broadcast
// or a conference, submitted, ticked, churned, pumped per source and
// swept in one registration order. DESIGN.md "Study harness" has the
// seed schedule, the hooks each study passes and that order. No study
// keeps a list of the members a failure stripped: the session does,
// and the studies that take restarted members back (chaos, audit,
// conf) call NodeRecovered and then Scheduler.Rejoin.

// The clocks every service cell runs on.
const (
	// tickEvery is the control plane's Tick period: an eighth of the
	// tightest (2 s) admit deadline. A retry runs at the first tick
	// after its backoff, so retries do wait on tick granularity: class
	// 1's first (125 ms ±20%) waits for the next tick, 250 ms on.
	tickEvery = 250 * eventsim.Millisecond
	// sweepEvery is the invariant-sweep interval (load, stream, conf,
	// chaos).
	// A sweep walks every live session's trees, so it runs far coarser
	// than the ticks: 120 sweeps over load's 10-minute window.
	sweepEvery = 5 * eventsim.Second
)

// What the two chunk-streaming studies (stream, conf) share.
const (
	// chunkDur is the media chunk duration: HLS-style one-second chunks
	// (dataplane's default too; stated because the media run counts its
	// timeline — stream end, churn window — in chunks).
	chunkDur = eventsim.Second
	// playoutLive is the per-chunk deadline after emission for live
	// content (stream's live cells, every conference): three chunks.
	playoutLive = 3 * eventsim.Second
	// pullNeighbors is each member's seeded mesh-neighbor count, the
	// "small seeded neighbor set" of DESIGN.md §8; the data plane alone
	// defaults to none (tree-only delivery).
	pullNeighbors = 4
	// mediaDetectDelay is the crash-to-NodeFailed lag under a stream:
	// under one chunk, so members below a dead relay miss chunks for
	// the detect-and-repair window only.
	mediaDetectDelay = 800 * eventsim.Millisecond
)

// synthLatency places hosts uniformly in a 200x200 ms square (x then y
// per host, drawn from rng) and returns the distance metric over them.
func synthLatency(rng *rand.Rand, hosts int) alm.LatencyFunc {
	xs := make([]float64, hosts)
	ys := make([]float64, hosts)
	for h := range xs {
		xs[h] = rng.Float64() * 200
		ys[h] = rng.Float64() * 200
	}
	return func(a, b int) float64 {
		if a == b {
			return 0
		}
		dx, dy := xs[a]-xs[b], ys[a]-ys[b]
		// Euclidean plus a constant floor stays a metric, so the
		// planner's indexed helper search is sound.
		return 5 + math.Sqrt(dx*dx+dy*dy)
	}
}

// capacityWorld builds the static world every stream and conf run
// shares: the latency metric, the capacity population, and the Section
// 4.2 leafset bandwidth estimates. A pure function of the seed, so each
// study draws it once and its runs only read it.
func capacityWorld(seed int64, hosts, leafset int) (alm.LatencyFunc, *netmodel.Model, []bandwidth.Estimates, error) {
	if leafset >= hosts {
		return nil, nil, nil, fmt.Errorf("experiments: a leafset of %d needs more than %d hosts", leafset, hosts)
	}
	lat := synthLatency(rand.New(rand.NewSource(seed+2)), hosts)
	model, err := netmodel.New(hosts, netmodel.Options{Seed: seed + 3})
	if err != nil {
		return nil, nil, nil, err
	}
	// Random-membership leafsets, the DHT's shape, estimated with the
	// paper's max rule; planning runs on these estimates while the
	// contention physics runs on model truth.
	lr := rand.New(rand.NewSource(seed + 4))
	leafs := make([][]int, hosts)
	for i := range leafs {
		seen := map[int]bool{i: true}
		for len(leafs[i]) < leafset {
			x := lr.Intn(hosts)
			if !seen[x] {
				seen[x] = true
				leafs[i] = append(leafs[i], x)
			}
		}
	}
	est := bandwidth.EstimateAll(model, func(i int) []int { return leafs[i] }, 1500, nil)
	return lat, model, est, nil
}

// uplinkDegree is the planning degree of a host with estimated uplink
// up at one bitrate: how many concurrent chunk flows (children plus the
// host's own parent link) the uplink sustains, clamped to [1, 16]. Each
// child is costed at 1.3x the rung, not 1.0x: a relay packed to 100%
// uplink utilization has no headroom for transfer overlap (chunk k+1
// arriving while k is still forwarding halves the fair share and the
// backlog never drains), so like any production streaming system the
// planner provisions ~75% peak utilization.
func uplinkDegree(up, rungKbps float64) int {
	d := int(up/(1.3*rungKbps)) + 1
	if d < 1 {
		d = 1
	}
	if d > 16 {
		d = 16
	}
	return d
}

// crashAt is one scheduled crash: pick indexes the caller's victim pool.
type crashAt struct {
	at   eventsim.Time
	pick int
}

// poissonCrashes pre-draws a churn schedule: exponential gaps at
// perMinute crashes per virtual minute starting from from, each crash
// picking one of n victims, until the next crash would land at or past
// until. Per crash it draws ExpFloat64 then Intn(n) — the order every
// study's seed schedule was recorded under. A rate <= 0 is no churn.
func poissonCrashes(rng *rand.Rand, perMinute float64, from, until eventsim.Time, n int) []crashAt {
	if perMinute <= 0 {
		return nil
	}
	var out []crashAt
	for at := from; ; {
		at += eventsim.Time(rng.ExpFloat64() / perMinute * float64(eventsim.Minute))
		if at >= until {
			return out
		}
		out = append(out, crashAt{at: at, pick: rng.Intn(n)})
	}
}

// faultWorld is one run's simulated network under a fault layer, with
// no control plane: each study hands it its own hooks, and it calls
// them without asking whose they are.
type faultWorld struct {
	engine *eventsim.Engine
	net    *faultnet.Net

	// err is the first failure an event callback reported.
	err error
	// down logs each host's down intervals in order; while the host is
	// down the last one is open (to = +Inf).
	down map[int][]downSpan

	checks *invariant.Registry
	// violations are what the sweeps found, in sweep order.
	violations []timedViolation
}

// downSpan is one interval a host spent crashed.
type downSpan struct{ from, to eventsim.Time }

// timedViolation is one invariant violation with its sweep time.
type timedViolation struct {
	At eventsim.Time
	V  invariant.Violation
}

func newFaultWorld(engineSeed, faultSeed int64, lat transport.LatencyFunc) *faultWorld {
	engine := eventsim.New(engineSeed)
	sim := transport.NewSim(engine, transport.SimOptions{Latency: lat})
	return &faultWorld{
		engine: engine,
		net:    faultnet.New(sim, faultnet.Options{Seed: faultSeed}),
		down:   make(map[int][]downSpan),
		checks: invariant.NewRegistry(),
	}
}

func (w *faultWorld) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// run drives the world to end and returns the first callback failure.
func (w *faultWorld) run(end eventsim.Time) error {
	w.engine.RunUntil(end)
	return w.err
}

// crashed reports whether host h is down right now.
func (w *faultWorld) crashed(h int) bool { return w.net.Crashed(transport.Addr(h)) }

// watch wires crash detection: a crash opens the host's down interval
// and, if the host is still down detectDelay later, calls failed; a
// restart closes the interval and calls restarted. Call it before the
// engine runs.
func (w *faultWorld) watch(detectDelay eventsim.Time, failed, restarted func(h int)) {
	w.net.OnCrash(func(a transport.Addr) {
		h := int(a)
		w.down[h] = append(w.down[h], downSpan{from: w.net.Now(), to: eventsim.Time(math.Inf(1))})
		w.net.After(detectDelay, func() {
			if w.net.Crashed(a) {
				failed(h)
			}
		})
	})
	w.net.OnRestart(func(a transport.Addr) {
		h := int(a)
		w.down[h][len(w.down[h])-1].to = w.net.Now()
		restarted(h)
	})
}

// downSince returns when host h went down; ok is false while it is up.
func (w *faultWorld) downSince(h int) (at eventsim.Time, ok bool) {
	spans := w.down[h]
	if len(spans) == 0 || !math.IsInf(float64(spans[len(spans)-1].to), 1) {
		return 0, false
	}
	return spans[len(spans)-1].from, true
}

// churn schedules Poisson crashes drawn from rng over [from, until),
// victims drawn from pool, each restarting after down.
func (w *faultWorld) churn(rng *rand.Rand, perMinute float64, from, until eventsim.Time, pool []int, down eventsim.Time) {
	for _, cr := range poissonCrashes(rng, perMinute, from, until, len(pool)) {
		victim := transport.Addr(pool[cr.pick])
		w.net.CrashAt(cr.at, victim)
		w.net.RestartAt(cr.at+down, victim)
	}
}

// view is the invariant registry's view of sc's sessions and ledger
// against the physical degree bounds, with down hosts read from this
// world. A host may stay in a settled tree for repairLag after it
// crashed.
func (w *faultWorld) view(sc *sched.Scheduler, bounds []int, repairLag eventsim.Time) *invariant.World {
	return &invariant.World{
		Sched:     sc,
		Bounds:    bounds,
		Down:      w.crashed,
		DownSince: w.downSince,
		RepairLag: repairLag,
	}
}

// sweep runs the registry's checks of phase over view now and records
// every violation with its time.
func (w *faultWorld) sweep(view *invariant.World, phase invariant.Phase) {
	view.Now = w.engine.Now()
	for _, v := range w.checks.Sweep(view, phase) {
		w.violations = append(w.violations, timedViolation{At: view.Now, V: v})
	}
}

// firstViolation renders the earliest violation (empty when clean).
func (w *faultWorld) firstViolation() string {
	if len(w.violations) == 0 {
		return ""
	}
	v := w.violations[0]
	return fmt.Sprintf("t=%.1fs %s", float64(v.At)/1000, v.V.String())
}

// serviceCell is one run of a study that drives the task manager
// through sched.Service: a fault world and the service on top of it,
// seeded from (seed, idx) on the schedule every study shares. Its
// methods schedule events in call order, and events at one timestamp
// fire in that order, so a study's sequence of calls is part of its
// output.
type serviceCell struct {
	*faultWorld
	sv      *sched.Service
	degrees []int
	reg     *obs.Registry

	detectDelay eventsim.Time
}

// newServiceCell wires run idx of a study. cfg carries only what the
// study tunes; the score metric and the service seed are set here.
// Nil registry handles are no-ops, so instrumentation is unconditional.
func newServiceCell(seed int64, idx int, lat alm.LatencyFunc, degrees []int, cfg sched.ServiceConfig, reg *obs.Registry) *serviceCell {
	w := newFaultWorld(seed+int64(idx), seed*100+int64(idx), transport.LatencyFunc(lat))
	cfg.Sched.ScoreLatency, cfg.Sched.MetricScore = lat, true
	cfg.Seed = seed*10 + int64(idx) + 5
	sv := sched.NewService(degrees, lat, cfg)
	sv.Instrument(reg)
	w.net.Instrument(reg, nil)
	return &serviceCell{faultWorld: w, sv: sv, degrees: degrees, reg: reg}
}

// rosterRNG is the stream run idx of a study draws its sessions from
// (conf needs the rosters before it can size the cell's degrees).
func rosterRNG(seed int64, idx int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000 + int64(idx)*17 + 3))
}

// churnRNG is the stream run idx of a service-cell study draws its
// crash schedule from.
func churnRNG(seed int64, idx int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000 + int64(idx)*31 + 7))
}

// submitAt schedules a submission. build runs when it fires and may
// return nil: the session never forms.
func (c *serviceCell) submitAt(at eventsim.Time, build func() *sched.Session) {
	c.engine.At(at, func() {
		if s := build(); s != nil {
			if _, err := c.sv.Submit(c.net.Now(), s); err != nil {
				c.fail(err)
			}
		}
	})
}

// tickUntil runs the control plane's Tick every tickEvery; the last
// tick is the first at or past end.
func (c *serviceCell) tickUntil(end eventsim.Time) {
	var tick func()
	tick = func() {
		if err := c.sv.Tick(c.net.Now()); err != nil {
			c.fail(err)
			return
		}
		if c.net.Now() < end {
			c.net.After(tickEvery, tick)
		}
	}
	c.net.After(tickEvery, tick)
}

// wireChurn connects the fault world to the service: a detected crash
// is NodeFailed, a restart NodeRecovered followed by the study's own
// onRestart (nil for none).
func (c *serviceCell) wireChurn(detectDelay eventsim.Time, onRestart func(h int)) {
	c.detectDelay = detectDelay
	c.watch(detectDelay, func(h int) { c.sv.NodeFailed(c.net.Now(), h) }, func(h int) {
		c.sv.NodeRecovered(c.net.Now(), h)
		if onRestart != nil {
			onRestart(h)
		}
	})
}

// sweepUntil sweeps the continuous invariants (slot conservation,
// ledger, tree validity) every sweepEvery through end, then runs each
// (nil for none). Call after wireChurn: the repair-lag bound is built
// from its detection delay.
func (c *serviceCell) sweepUntil(end eventsim.Time, each func()) {
	// Crash-to-repair is detection plus at most one tick (failed
	// in-place repairs go dirty, and dirty sessions are skipped).
	view := c.view(c.sv.Scheduler(), c.degrees, c.detectDelay+tickEvery+2*eventsim.Second)
	sweep := func() {
		c.sweep(view, invariant.Continuous)
		if each != nil {
			each()
		}
	}
	for t := sweepEvery; t <= end; t += sweepEvery {
		c.engine.At(t, sweep)
	}
}

// mediaSession is one session a media run submits and streams: a
// broadcast (sources nil) or a conference, whose extra sources stream
// to the rest of the roster too.
type mediaSession struct {
	id      sched.SessionID
	pri     int
	root    int
	members []int
	sources []int
}

// mediaRun is what a chunk-streaming study (stream, conf) hands the
// shared run: its sessions, how they stream and how they churn.
type mediaRun struct {
	sessions []mediaSession
	// model holds the true capacities the data plane runs on.
	model *netmodel.Model
	// pump carries the study's bitrate, playout and chunk count; pump
	// i is seeded seedBase+i.
	pump     dataplane.Config
	seedBase int64
	// Churn: crashRate crashes per virtual minute (0 for none), times
	// and victims drawn from churn, hit churnPool while chunks are
	// emitted; each victim restarts after restartDelay. restarted (nil
	// for none) runs after a restart's NodeRecovered while the stream
	// lasts.
	churn        *rand.Rand
	crashRate    float64
	churnPool    []int
	restartDelay eventsim.Time
	restarted    func(sc *sched.Scheduler, h int)
}

// runMedia runs m on the cell and returns each pump's outcome, indexed
// by session, then by source (the root first). Pumps start at 2 s, the
// stream ends one playout after the last chunk, and the run 10 s after
// that. It registers, in this order: the submits at 100 ms, the tick,
// the crash hooks, the churn (from 3 s into the stream to its last
// emission), one pump per (session, source), keyed by its index, and
// the continuous sweeps.
func (c *serviceCell) runMedia(m mediaRun) ([][]dataplane.Stats, error) {
	pumpStart := 2 * eventsim.Second
	streamEnd := pumpStart + eventsim.Time(m.pump.Chunks)*chunkDur + m.pump.Playout
	runEnd := streamEnd + 10*eventsim.Second
	sc := c.sv.Scheduler()

	for _, s := range m.sessions {
		c.submitAt(100*eventsim.Millisecond, func() *sched.Session {
			return &sched.Session{
				ID: s.id, Priority: s.pri, Root: s.root,
				Members: append([]int(nil), s.members...),
				Sources: append([]int(nil), s.sources...),
			}
		})
	}
	c.tickUntil(runEnd)
	c.wireChurn(mediaDetectDelay, func(h int) {
		if m.restarted != nil && c.net.Now() < streamEnd {
			m.restarted(sc, h)
		}
	})
	c.churn(m.churn, m.crashRate, pumpStart+3*eventsim.Second, streamEnd-m.pump.Playout, m.churnPool, m.restartDelay)

	n := len(c.degrees)
	up := make([]float64, n)
	down := make([]float64, n)
	for h := range up {
		up[h] = m.model.Up(h)
		down[h] = m.model.Down(h)
	}
	plane := dataplane.NewPlane(c.net, up, down)
	plane.Attach(n)
	plane.Instrument(c.reg)
	alive := func(h int) bool { return !c.crashed(h) }
	cfg := m.pump
	cfg.ChunkDur, cfg.PullNeighbors = chunkDur, pullNeighbors
	pumps := make([][]*dataplane.Pump, len(m.sessions))
	c.engine.At(pumpStart-eventsim.Millisecond, func() {
		key := 0
		for i, s := range m.sessions {
			roster := append([]int{s.root}, s.members...)
			for _, src := range append([]int{s.root}, s.sources...) {
				// The receivers are the roster minus the source: for an
				// extra source that includes the session root.
				receivers := slices.DeleteFunc(slices.Clone(roster), func(h int) bool { return h == src })
				tree := func() *alm.Tree {
					if live := sc.Session(s.id); live != nil {
						return live.TreeFor(src)
					}
					return nil
				}
				cfg.Seed = m.seedBase + int64(key)
				p, err := plane.StartPump(key, src, receivers, tree, alive, pumpStart, cfg)
				if err != nil {
					c.fail(err)
					return
				}
				pumps[i] = append(pumps[i], p)
				key++
			}
		}
	})
	c.sweepUntil(runEnd, nil)

	if err := c.run(runEnd); err != nil {
		return nil, err
	}
	stats := make([][]dataplane.Stats, len(pumps))
	for i, ps := range pumps {
		for _, p := range ps {
			stats[i] = append(stats[i], p.Finalize())
		}
	}
	return stats, nil
}

// mediaRow is the delivery columns stream and conf rows share.
type mediaRow struct {
	// Outcome partition over expected (member, chunk) pairs, summed
	// across the pumps the study counts; see dataplane.Stats.
	Expected      int
	OnTimeTree    int
	PullRecovered int
	Late          int
	Lost          int
	TreeMisses    int
	Duplicates    int
	PullsSent     int
	// DeliveredKbps = bitrate x on-time fraction; MissRate = 1 -
	// on-time fraction (both 0 when nothing was expected).
	DeliveredKbps float64
	MissRate      float64
	// Control-plane activity during the run.
	Crashes int
	Repairs int
	Replans int
	// Violations counts invariant-sweep violations; FirstViolation is
	// the earliest one's rendering (empty when clean).
	Violations     int
	FirstViolation string

	// BenchWallMS is filled only when the study's Bench option is set.
	BenchWallMS float64 `json:"wall_ms"`
}

func (m *mediaRow) add(st dataplane.Stats) {
	m.Expected += st.Expected
	m.OnTimeTree += st.OnTimeTree
	m.PullRecovered += st.PullRecovered
	m.Late += st.Late
	m.Lost += st.Lost
	m.TreeMisses += st.TreeMisses
	m.Duplicates += st.Duplicates
	m.PullsSent += st.PullsSent
}

// rate sets the delivered bitrate at kbps and the miss rate from the
// counts added so far.
func (m *mediaRow) rate(kbps float64) {
	if m.Expected > 0 {
		onTime := float64(m.OnTimeTree+m.PullRecovered) / float64(m.Expected)
		m.DeliveredKbps = kbps * onTime
		m.MissRate = 1 - onTime
	}
}

// harvest fills the rest once the study has added its pumps' counts:
// the rates at kbps, the cell's crashes, repairs, replans and
// violations, and with bench the wall time since start.
func (m *mediaRow) harvest(c *serviceCell, kbps float64, start time.Time, bench bool) {
	m.rate(kbps)
	m.Crashes = int(c.net.Counters().Crashes)
	tot := c.sv.Scheduler().Totals()
	m.Repairs, m.Replans = tot.Repairs, tot.Replans
	m.Violations, m.FirstViolation = len(c.violations), c.firstViolation()
	if bench {
		m.BenchWallMS = float64(time.Since(start).Milliseconds())
	}
}

// appendViolations appends a table titled title to tables listing each
// of n runs whose sweeps found a violation (run(i) gives its label,
// count and first), or nothing when every run was clean.
func appendViolations(tables []Table, title string, n int, run func(i int) (label string, violations int, first string)) []Table {
	viol := Table{Title: title, Columns: []string{"cell", "violations", "first"}}
	for i := 0; i < n; i++ {
		if label, v, first := run(i); v > 0 {
			viol.Rows = append(viol.Rows, []string{label, d(v), first})
		}
	}
	if len(viol.Rows) == 0 {
		return tables
	}
	return append(tables, viol)
}
