package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"p2ppool/internal/core"
	"p2ppool/internal/dht"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/faultnet"
	"p2ppool/internal/obs"
	"p2ppool/internal/par"
	"p2ppool/internal/somo"
	"p2ppool/internal/transport"
)

// ObsOptions parameterizes the observability study: a SOMO ring whose
// members publish their own metrics registries through the aggregation
// tree (the SOMO root snapshot doubles as the system-health dashboard),
// plus a fault-injected chaos run whose delivery loss is attributed
// cause by cause.
type ObsOptions struct {
	// Nodes in the monitored ring.
	Nodes int
	// Runtime of the health study.
	Runtime eventsim.Time
	// TraceTail is how many trailing trace events to print (0 = none;
	// the -trace flag sets it).
	TraceTail int
	Seed      int64
	// Workers bounds the parallelism; <= 0 means runtime.NumCPU(). The
	// output is identical for any worker count.
	Workers int
}

func (o ObsOptions) withDefaults() ObsOptions {
	if o.Nodes <= 0 {
		o.Nodes = 32
	}
	if o.Runtime <= 0 {
		o.Runtime = 150 * eventsim.Second
	}
	return o
}

// ObsHealthRow is one member's line of the system-health table, read
// entirely out of the SOMO root snapshot (in-band monitoring: no side
// channel touches the members).
type ObsHealthRow struct {
	Host   int
	Status string // ok | silent | missing | down
	// LastReportSec is when the member last reported, in virtual
	// seconds; -1 if it never appeared.
	LastReportSec float64
	// Per-member counters carried inside the member's published
	// registry snapshot.
	Reports    uint64
	Heartbeats uint64
	Routed     uint64
	Delivered  uint64
}

// obsHealth is the health study's raw outcome.
type obsHealth struct {
	Rows     []ObsHealthRow
	Totals   obs.Snapshot // global (transport + faultnet) registry
	Summary  obs.Summary
	Tail     []obs.Event
	Version  uint64
	SnapTime eventsim.Time
	// digest fingerprints the protocol outcome only — identical with
	// instrumentation on and off (the observer-effect-zero property).
	Digest string
}

// ObsResult is the observability study.
type ObsResult struct {
	Opts   ObsOptions
	Health *obsHealth
	Chaos  *ChaosResult
}

// Obs runs the observability study: the dogfooded SOMO health
// dashboard and the chaos loss-attribution run.
func Obs(opts ObsOptions) (*ObsResult, error) {
	opts = opts.withDefaults()
	type part struct {
		health *obsHealth
		chaos  *ChaosResult
	}
	parts, err := par.MapErr(opts.Workers, 2, func(i int) (part, error) {
		if i == 0 {
			h, err := obsHealthRun(opts, true)
			return part{health: h}, err
		}
		c, err := Chaos(ChaosOptions{
			Hosts:     64,
			GroupSize: 12,
			Rates:     []float64{0, 3},
			Window:    2 * eventsim.Minute,
			Seed:      opts.Seed,
			Workers:   opts.Workers,
		})
		return part{chaos: c}, err
	})
	if err != nil {
		return nil, err
	}
	return &ObsResult{Opts: opts, Health: parts[0].health, Chaos: parts[1].chaos}, nil
}

// The health study's script.
const (
	// obsReportInterval is SOMO's T: a dashboard refreshing every
	// couple of seconds; "silent" is three missed reports.
	obsReportInterval = 2 * eventsim.Second
	// obsCrashAt is when two members crash, the ring and the SOMO tree
	// having converged (the victims are picked 10 s before).
	obsCrashAt = 30 * eventsim.Second
	// obsRestartAt is when one of them rejoins; the other stays dead.
	// 45 s down outlasts the 4 s failure timeout and the 16 s record
	// TTL, so the victim has left the root view before it returns:
	// the resume-after-restart path end to end.
	obsRestartAt = 75 * eventsim.Second
)

// obsHealthRun builds the monitored ring and drives the
// crash/restart script. With instrument=false there is no registry
// and no trace — the run must then be event-for-event identical, which
// the observer-effect test checks by comparing digests.
func obsHealthRun(opts ObsOptions, instrument bool) (*obsHealth, error) {
	n := opts.Nodes
	engine := eventsim.New(opts.Seed + 11)
	sim := transport.NewSim(engine, transport.SimOptions{Latency: uniformLatency(40)})
	f := faultnet.New(sim, faultnet.Options{Seed: opts.Seed + 13})

	var reg *obs.Registry
	var trace *obs.Trace
	perNode := make([]*obs.Registry, n)
	if instrument {
		reg = obs.New()
		trace = obs.NewTrace(4096)
		for i := range perNode {
			perNode[i] = obs.New()
		}
	}
	sim.Instrument(reg, trace)
	f.Instrument(reg, trace)

	r := rand.New(rand.NewSource(opts.Seed + 17))
	_, nodeOf, err := core.Ring(core.OnNet(f), dht.RandomIDs(n, r), dht.Config{
		LeafsetRadius:     8,
		HeartbeatInterval: eventsim.Second,
		FailureTimeout:    4 * eventsim.Second,
	})
	if err != nil {
		return nil, err
	}
	for h, nd := range nodeOf {
		nd.Instrument(perNode[h], trace)
	}
	// The dogfood payload: each member publishes its own metrics
	// snapshot and last-report time through SOMO itself. Agents are
	// created in host order.
	var agentOf []*somo.Agent
	agentOf, _ = core.AttachSOMO(nodeOf, churnSOMO(obsReportInterval), func(h int) interface{} {
		return obs.Health{
			Host:       h,
			LastReport: agentOf[h].LastReport(),
			Metrics:    perNode[h].Snapshot(),
		}
	})
	for h, a := range agentOf {
		a.Instrument(perNode[h])
	}

	// Crash two members; nodes stop their protocol stack (a crash), but
	// the SOMO agents are deliberately NOT stopped — the regression this
	// study dogfoods is their report loop surviving the outage and
	// resuming once the node rejoins.
	f.OnCrash(func(a transport.Addr) { nodeOf[int(a)].Stop() })

	// Converge, then pick victims and a rejoin seed away from the root.
	engine.RunUntil(obsCrashAt - 10*eventsim.Second)
	rootHost := core.LiveRoot(agentOf)
	victims := make([]int, 0, 2)
	for h := 0; h < n && len(victims) < 2; h++ {
		if h != rootHost {
			victims = append(victims, h)
		}
	}
	seedHost := rootHost
	if seedHost < 0 {
		seedHost = n - 1
	}
	f.OnRestart(func(a transport.Addr) { nodeOf[int(a)].Join(nodeOf[seedHost].Self()) })
	for _, v := range victims {
		f.CrashAt(obsCrashAt, transport.Addr(v))
	}
	// The first victim rejoins; the second stays dead for the rest of
	// the run (the "down" dashboard line).
	f.RestartAt(obsRestartAt, transport.Addr(victims[0]))

	engine.RunUntil(opts.Runtime)

	// Read the dashboard out of the SOMO root snapshot.
	view, ok := core.ReadRoot(agentOf)
	if !ok {
		return nil, fmt.Errorf("obs: no live SOMO root after %v ms", opts.Runtime)
	}
	snap := view.Snapshot

	byHost := make(map[int]obs.Health, len(snap.Records))
	for _, rec := range snap.Records {
		if h, ok := rec.Data.(obs.Health); ok {
			byHost[h.Host] = h
		}
	}
	out := &obsHealth{Version: snap.Version, SnapTime: snap.Time}
	now := engine.Now()
	for h := 0; h < n; h++ {
		row := ObsHealthRow{Host: h, LastReportSec: -1}
		health, present := byHost[h]
		switch {
		case f.Crashed(transport.Addr(h)):
			row.Status = "down"
		case !present:
			row.Status = "missing"
		case now-health.LastReport > 3*obsReportInterval:
			row.Status = "silent"
		default:
			row.Status = "ok"
		}
		if present {
			row.LastReportSec = float64(health.LastReport) / 1000
			row.Reports = health.Metrics.Counter("somo.reports_sent")
			row.Heartbeats = health.Metrics.Counter("dht.heartbeats_sent")
			row.Routed = health.Metrics.Counter("dht.routed")
			row.Delivered = health.Metrics.Counter("dht.delivered")
		}
		out.Rows = append(out.Rows, row)
	}
	out.Totals = reg.Snapshot()
	out.Summary = trace.Summary()
	out.Tail = trace.Tail(opts.TraceTail)

	// Protocol-only fingerprint: must not depend on instrumentation.
	stats := sim.Stats()
	ctr := f.Counters()
	statuses := make([]string, 0, n)
	for _, row := range out.Rows {
		statuses = append(statuses, fmt.Sprintf("%d=%s@%.1f", row.Host, row.Status, row.LastReportSec))
	}
	sort.Strings(statuses)
	out.Digest = fmt.Sprintf("processed=%d sent=%d delivered=%d dropped=%d crashes=%d restarts=%d crashdrops=%d snapver=%d records=%d %v",
		engine.Processed(), stats.MessagesSent, stats.MessagesDelivered, stats.MessagesDropped,
		ctr.Crashes, ctr.Restarts, ctr.CrashDrops, snap.Version, len(snap.Records), statuses)
	return out, nil
}

// Tables renders the observability study.
func (r *ObsResult) Tables() []Table {
	health := Table{
		Title:   "Obs: system health from the SOMO root snapshot (in-band dashboard)",
		Columns: []string{"host", "status", "last report (s)", "reports", "heartbeats", "routed", "delivered"},
		Note: fmt.Sprintf("snapshot v%d at %.1f s; one member crashes and rejoins (reports resume), "+
			"one stays down; status silent = no report for 3 intervals", r.Health.Version,
			float64(r.Health.SnapTime)/1000),
	}
	for _, row := range r.Health.Rows {
		last := "-"
		if row.LastReportSec >= 0 {
			last = f1(row.LastReportSec)
		}
		health.Rows = append(health.Rows, []string{
			d(row.Host), row.Status, last,
			d(int(row.Reports)), d(int(row.Heartbeats)), d(int(row.Routed)), d(int(row.Delivered)),
		})
	}

	totals := Table{
		Title:   "Obs: global metrics registry (transport + fault layer)",
		Columns: []string{"metric", "value"},
		Note:    "counters from the shared registry; per-member registries travel inside the health table above",
	}
	for _, c := range r.Health.Totals.Counters {
		totals.Rows = append(totals.Rows, []string{c.Name, d(int(c.Value))})
	}

	hists := Table{
		Title:   "Obs: latency histograms",
		Columns: []string{"histogram", "count", "mean", "min", "max"},
	}
	for _, h := range r.Health.Totals.Histograms {
		hists.Rows = append(hists.Rows, []string{
			h.Name, d(int(h.Count)), f1(h.Mean()), f1(h.Min), f1(h.Max),
		})
	}

	s := r.Health.Summary
	traceT := Table{
		Title:   "Obs: hop-level trace summary",
		Columns: []string{"event", "count"},
		Note: fmt.Sprintf("delivery latency ms min/mean/max = %.1f/%.1f/%.1f over %d samples; "+
			"route hops mean/max = %.2f/%d over %d routed hops",
			s.LatMin, s.LatMean, s.LatMax, s.LatCount, s.HopMean, s.HopMax, s.HopCount),
	}
	for _, kc := range s.ByKind {
		traceT.Rows = append(traceT.Rows, []string{kc.Kind.String(), d(int(kc.Count))})
	}
	for _, cc := range s.ByCause {
		traceT.Rows = append(traceT.Rows, []string{"drop:" + cc.Cause, d(int(cc.Count))})
	}

	tables := []Table{health, totals, hists, traceT}

	if len(r.Health.Tail) > 0 {
		tail := Table{
			Title:   fmt.Sprintf("Obs: trace tail (last %d events)", len(r.Health.Tail)),
			Columns: []string{"time ms", "event", "from", "to", "detail"},
		}
		for _, ev := range r.Health.Tail {
			detail := ev.Cause
			if ev.Kind == obs.KindHop {
				detail = fmt.Sprintf("hop=%d", ev.Hop)
			} else if ev.Latency > 0 {
				detail = fmt.Sprintf("%.1fms", ev.Latency)
			}
			tail.Rows = append(tail.Rows, []string{
				f1(float64(ev.Time)), ev.Kind.String(), d(ev.From), d(ev.To), detail,
			})
		}
		tables = append(tables, tail)
	}

	tables = append(tables, r.Chaos.AttributionTable())
	return tables
}
