package somo

import (
	"slices"

	"p2ppool/internal/dht"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/ids"
	"p2ppool/internal/obs"
)

// Record is one member's metadata report as it travels up the tree.
type Record struct {
	// Source is the member the record describes.
	Source dht.Entry
	// Time is when the source generated the record (virtual ms); the
	// root snapshot's staleness is measured from these.
	Time eventsim.Time
	// Data is the application payload (the resource pool publishes
	// pool.Status values; SOMO itself treats it as opaque).
	Data interface{}
}

// Snapshot is the aggregated system view available at the SOMO root.
type Snapshot struct {
	Records []Record
	Version uint64
	// Time is when the root assembled this snapshot.
	Time eventsim.Time
}

// Digest is the compact root summary disseminated back down the tree
// in report acknowledgements.
type Digest struct {
	Version   uint64
	NodeCount int
	Time      eventsim.Time
}

// Config tunes a SOMO agent.
type Config struct {
	// Fanout k of the logical tree (paper default: 8).
	Fanout int
	// ReportInterval T between report flows (LiquidEye uses 5 s).
	ReportInterval eventsim.Time
	// RecordTTL expires stale child records; it must comfortably exceed
	// depth * ReportInterval for the unsynchronized flow (default
	// recordTTLPerReport intervals).
	RecordTTL eventsim.Time
	// Synchronized switches to the pull-driven flow: a parent's call
	// for reports immediately triggers its children's reports, cutting
	// gather latency from log_k(N)*T to T + t_hop*log_k(N). The pull
	// cascades: a pulled node first pulls its own children and waits up
	// to gatherWindow for their fresh reports before reporting up, so
	// the root's view is at most one wave round-trip old.
	Synchronized bool
	// QueryTimeout bounds how long a Query waits for the root's reply.
	// If the root owner dies (or the reply is lost) the pending callback
	// would otherwise leak forever; after the timeout it fires once with
	// a zero Snapshot (default queryTimeoutPerReport intervals).
	QueryTimeout eventsim.Time
}

const (
	// gatherWindow is how long a pulled node waits for its children's
	// fresh reports before reporting up (synchronized flow only): 4 *
	// the typical one-way hop.
	gatherWindow = 400 * eventsim.Millisecond
	// reportBytesPerRecord models the wire size of one record (the
	// paper's leaf report is 40 bytes).
	reportBytesPerRecord = 40
)

// The derived defaults, each a fixed ratio of the report interval T.
const (
	// The unsynchronized flow lifts a record one level per T, so a
	// record must outlive depth * T; 20 covers a 100,000-host tree at
	// fanout 8 with room for lost reports.
	recordTTLPerReport = 20
	// A live root answers within a round trip; a query still pending
	// after four report flows has lost its root, and its caller hears
	// so while its last snapshot is only a few flows old.
	queryTimeoutPerReport = 4
)

// DefaultConfig returns the paper's SOMO parameters.
func DefaultConfig() Config {
	return Config{
		Fanout:         8,
		ReportInterval: 5 * eventsim.Second,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Fanout < 2 {
		c.Fanout = d.Fanout
	}
	if c.ReportInterval <= 0 {
		c.ReportInterval = d.ReportInterval
	}
	if c.RecordTTL <= 0 {
		c.RecordTTL = recordTTLPerReport * c.ReportInterval
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = queryTimeoutPerReport * c.ReportInterval
	}
	return c
}

// reportMsg carries records up one level; routed to the parent position.
type reportMsg struct {
	Reporter dht.Entry
	Records  []Record
}

// reportAck flows the latest root digest back down to the reporter.
type reportAck struct {
	Digest Digest
}

// pullMsg (synchronized mode) asks a child to report immediately.
type pullMsg struct{}

// queryMsg asks the root owner for the full snapshot.
type queryMsg struct {
	ReplyTo dht.Entry
	Token   uint64
}

// snapshotMsg answers a queryMsg.
type snapshotMsg struct {
	Token    uint64
	Snapshot Snapshot
}

// LocalFunc produces this member's current metadata payload.
type LocalFunc func() interface{}

// Agent runs the SOMO protocol on one DHT node. Create with NewAgent
// after the node exists; the agent registers its own handlers.
type Agent struct {
	node *dht.Node
	cfg  Config

	local LocalFunc

	// children holds the freshest record per source that has been
	// reported to a logical node this agent hosts.
	children map[ids.ID]Record

	// knownChildren remembers reporter entries for synchronized pulls.
	knownChildren map[ids.ID]dht.Entry

	snapshot Snapshot // root only: latest assembled global view
	// snapshotShared marks that snapshot.Records has escaped to a
	// caller (Query callback, snapshotMsg reply, RootSnapshot). While
	// set, refreshRoot must allocate a fresh slice instead of reusing
	// the old one, or it would mutate data the caller still holds.
	snapshotShared bool
	digest         Digest // latest digest seen (root: own; others: from acks)

	queryToken uint64
	queries    map[uint64]*pendingQuery

	// Synchronized-flow wave state: while a wave is pending this agent
	// has pulled its children and is waiting for their fresh reports.
	wavePending  bool
	waveReported map[ids.ID]bool
	waveCancel   func() bool

	cancelTick func() bool
	stopped    bool

	// Metrics.
	reportsSent     uint64
	reportsReceived uint64
	waves           uint64 // synchronized gather waves completed
	queryTimeouts   uint64
	lastReport      eventsim.Time

	// Observability handle (nil when uninstrumented).
	hRecordAge *obs.Histogram
}

// pendingQuery is an outstanding Query awaiting the root's snapshot;
// cancel disarms its timeout timer.
type pendingQuery struct {
	cb     func(Snapshot)
	cancel func() bool
}

// NewAgent attaches a SOMO agent to a node. local provides the member's
// own metadata payload; it may be nil (the member contributes only its
// presence).
func NewAgent(node *dht.Node, cfg Config, local LocalFunc) *Agent {
	a := &Agent{
		node:          node,
		cfg:           cfg.withDefaults(),
		local:         local,
		children:      make(map[ids.ID]Record),
		knownChildren: make(map[ids.ID]dht.Entry),
		queries:       make(map[uint64]*pendingQuery),
	}
	node.OnRouted(a.onRouted)
	node.OnApp(a.onApp)
	a.scheduleTick(a.jitteredInterval())
	return a
}

// Stop halts the agent's periodic reporting and disarms outstanding
// query timeouts (their callbacks are never invoked).
func (a *Agent) Stop() {
	a.stopped = true
	if a.cancelTick != nil {
		a.cancelTick()
		a.cancelTick = nil
	}
	for tok, pq := range a.queries {
		if pq.cancel != nil {
			pq.cancel()
		}
		delete(a.queries, tok)
	}
}

// Instrument wires the agent to an observability registry: report
// counters, wave completions, query timeouts, last-report and
// digest-version gauges, each a reader of the agent's own state, and a
// record-age (digest staleness) histogram. reg may be nil;
// instrumentation never alters protocol behavior.
func (a *Agent) Instrument(reg *obs.Registry) {
	reg.Counter("somo.reports_sent", func() uint64 { return a.reportsSent })
	reg.Counter("somo.reports_received", func() uint64 { return a.reportsReceived })
	reg.Counter("somo.waves", func() uint64 { return a.waves })
	reg.Counter("somo.query_timeouts", func() uint64 { return a.queryTimeouts })
	reg.Gauge("somo.last_report_ms", func() float64 { return float64(a.lastReport) })
	reg.Gauge("somo.digest_version", func() float64 { return float64(a.digest.Version) })
	a.hRecordAge = reg.Histogram("somo.record_age_ms", []float64{100, 500, 1000, 2500, 5000, 10000, 25000, 50000})
}

// Node returns the DHT node this agent runs on.
func (a *Agent) Node() *dht.Node { return a.node }

// Config returns the agent's effective configuration (defaults
// applied). Invariant checks derive staleness and TTL bounds from it.
func (a *Agent) Config() Config { return a.cfg }

// Representative returns the logical tree node this member currently
// represents (recomputed from the live zone, so churn is reflected
// immediately).
func (a *Agent) Representative() LogicalNode {
	return Representative(a.node.Zone(), a.cfg.Fanout)
}

// IsRoot reports whether this member currently hosts the logical root.
func (a *Agent) IsRoot() bool { return a.Representative().IsRoot() }

// RootSnapshot returns the latest assembled snapshot. Only meaningful
// on the root member; others see a zero snapshot and should use Query.
func (a *Agent) RootSnapshot() Snapshot {
	a.snapshotShared = true
	return a.snapshot
}

// LatestDigest returns the newest root digest this member has seen via
// downward dissemination.
func (a *Agent) LatestDigest() Digest { return a.digest }

// ReportsSent returns how many upward reports this agent has sent.
func (a *Agent) ReportsSent() uint64 { return a.reportsSent }

// ReportsReceived returns how many child reports this agent has taken.
func (a *Agent) ReportsReceived() uint64 { return a.reportsReceived }

// LastReport returns when this agent last pushed a report up (or, on
// the root, refreshed the snapshot). Zero if it has never reported.
// The obs experiment uses this to tell a silent agent from a slow one.
func (a *Agent) LastReport() eventsim.Time { return a.lastReport }

// Query requests the current global snapshot from the root; cb runs
// when the reply arrives. A member that is itself the root answers
// synchronously. If no reply arrives within QueryTimeout (root died,
// reply lost), cb fires once with a zero Snapshot — callbacks never
// leak, and callers can distinguish the cases by Snapshot.Version == 0.
func (a *Agent) Query(cb func(Snapshot)) {
	if a.IsRoot() {
		a.refreshRoot()
		a.snapshotShared = true
		cb(a.snapshot)
		return
	}
	a.queryToken++
	tok := a.queryToken
	pq := &pendingQuery{cb: cb}
	a.queries[tok] = pq
	pq.cancel = a.node.Network().After(a.cfg.QueryTimeout, func() {
		if cur, ok := a.queries[tok]; ok && cur == pq {
			delete(a.queries, tok)
			a.queryTimeouts++
			cb(Snapshot{})
		}
	})
	a.node.Route(Root.Position(a.cfg.Fanout), 64, queryMsg{ReplyTo: a.node.Self(), Token: tok})
}

// --- periodic flow ---

func (a *Agent) jitteredInterval() eventsim.Time {
	// +/-10% jitter decorrelates report waves between members.
	j := 0.9 + 0.2*a.node.Network().Rand().Float64()
	return eventsim.Time(float64(a.cfg.ReportInterval) * j)
}

func (a *Agent) scheduleTick(d eventsim.Time) {
	a.cancelTick = a.node.Network().After(d, a.tick)
}

func (a *Agent) tick() {
	if a.stopped {
		return
	}
	// Reschedule through inactivity. The tick used to die the first
	// time it fired on an inactive node, so an agent whose node was
	// crashed by the fault layer and later rejoined stayed silent
	// forever — it never reappeared in the root snapshot. Skipping the
	// flow while inactive but keeping the loop alive lets reporting
	// resume on its own the interval after the node rejoins.
	if a.node.Active() {
		a.flow()
	}
	a.scheduleTick(a.jitteredInterval())
}

// flow performs one gather step. Unsynchronized: merge local + child
// records and push them one level up (or refresh the root snapshot).
// Synchronized: start a cascading wave — pull children, wait up to
// gatherWindow for their fresh reports, then push up.
func (a *Agent) flow() {
	if a.cfg.Synchronized && len(a.knownChildren) > 0 && !a.wavePending {
		a.wavePending = true
		a.waveReported = make(map[ids.ID]bool, len(a.knownChildren))
		a.pullChildren()
		a.waveCancel = a.node.Network().After(gatherWindow, a.finishWave)
		return
	}
	if !a.cfg.Synchronized || !a.wavePending {
		a.pushUp()
	}
}

// finishWave ends a synchronized gather wave and pushes the (now
// refreshed) records up.
func (a *Agent) finishWave() {
	if !a.wavePending {
		return
	}
	a.wavePending = false
	if a.waveCancel != nil {
		a.waveCancel()
		a.waveCancel = nil
	}
	a.waves++
	a.pushUp()
}

// pushUp merges local + child records and sends them one level up, or
// refreshes the snapshot when this member hosts the root.
func (a *Agent) pushUp() {
	if a.stopped || !a.node.Active() {
		return
	}
	rep := a.Representative()
	if rep.IsRoot() {
		a.refreshRoot()
		return
	}
	records := a.assemble()
	parentPos := rep.Parent(a.cfg.Fanout).Position(a.cfg.Fanout)
	size := 64 + reportBytesPerRecord*len(records)
	a.node.Route(parentPos, size, reportMsg{Reporter: a.node.Self(), Records: records})
	a.reportsSent++
	a.lastReport = a.node.Network().Now()
}

// assemble merges the member's own record with unexpired child records.
// The slice is freshly allocated (pre-sized) because report records
// escape into an asynchronous message.
func (a *Agent) assemble() []Record {
	return a.assembleInto(make([]Record, 0, 1+len(a.children)))
}

// assembleInto is assemble writing into a caller-provided buffer
// (reused across root refreshes).
func (a *Agent) assembleInto(records []Record) []Record {
	now := a.node.Network().Now()
	var data interface{}
	if a.local != nil {
		data = a.local()
	}
	records = append(records, Record{Source: a.node.Self(), Time: now, Data: data})
	for id, rec := range a.children {
		if now-rec.Time > a.cfg.RecordTTL {
			delete(a.children, id)
			delete(a.knownChildren, id)
			continue
		}
		records = append(records, rec)
	}
	// Deterministic order keeps simulation runs reproducible; source IDs
	// are unique, so the (unstable) sort has a single valid result.
	slices.SortFunc(records, func(x, y Record) int {
		switch {
		case x.Source.ID < y.Source.ID:
			return -1
		case x.Source.ID > y.Source.ID:
			return 1
		}
		return 0
	})
	return records
}

func (a *Agent) refreshRoot() {
	var buf []Record
	if a.snapshotShared || cap(a.snapshot.Records) == 0 {
		buf = make([]Record, 0, 1+len(a.children))
		a.snapshotShared = false
	} else {
		buf = a.snapshot.Records[:0]
	}
	records := a.assembleInto(buf)
	a.snapshot = Snapshot{
		Records: records,
		Version: a.snapshot.Version + 1,
		Time:    a.node.Network().Now(),
	}
	a.digest = Digest{
		Version:   a.snapshot.Version,
		NodeCount: len(records),
		Time:      a.snapshot.Time,
	}
	a.lastReport = a.snapshot.Time
	if a.hRecordAge != nil {
		// Record age at the root IS the gather staleness the paper
		// bounds by depth * ReportInterval.
		for _, rec := range records {
			a.hRecordAge.Observe(float64(a.snapshot.Time - rec.Time))
		}
	}
}

// pullChildren (synchronized mode) nudges known children to report
// now. Pulls go out in ring-ID order: knownChildren is a map, and
// ranging it directly would make the wave's event order depend on map
// iteration, breaking run-to-run determinism.
func (a *Agent) pullChildren() {
	keys := make([]ids.ID, 0, len(a.knownChildren))
	for id := range a.knownChildren {
		keys = append(keys, id)
	}
	slices.Sort(keys)
	for _, id := range keys {
		a.node.SendApp(a.knownChildren[id], 32, pullMsg{})
	}
}

// --- message handling ---

func (a *Agent) onRouted(key ids.ID, from dht.Entry, hops int, payload interface{}) {
	switch m := payload.(type) {
	case reportMsg:
		a.reportsReceived++
		for _, rec := range m.Records {
			if old, ok := a.children[rec.Source.ID]; !ok || rec.Time > old.Time {
				a.children[rec.Source.ID] = rec
			}
		}
		a.knownChildren[m.Reporter.ID] = m.Reporter
		// Disseminate the freshest root digest back down.
		a.node.SendApp(m.Reporter, 48, reportAck{Digest: a.digest})
		// Synchronized wave bookkeeping: once every known child has
		// answered this wave, report up without waiting out the window.
		if a.wavePending {
			a.waveReported[m.Reporter.ID] = true
			if len(a.waveReported) >= len(a.knownChildren) {
				a.finishWave()
			}
		}
	case queryMsg:
		a.refreshRoot()
		a.snapshotShared = true // Records ride inside the async reply
		size := 64 + reportBytesPerRecord*len(a.snapshot.Records)
		a.node.SendApp(m.ReplyTo, size, snapshotMsg{Token: m.Token, Snapshot: a.snapshot})
	}
}

func (a *Agent) onApp(from dht.Entry, payload interface{}) {
	switch m := payload.(type) {
	case reportAck:
		if m.Digest.Version > a.digest.Version {
			a.digest = m.Digest
		}
	case pullMsg:
		if !a.stopped && a.node.Active() {
			a.flow()
		}
	case snapshotMsg:
		if pq, ok := a.queries[m.Token]; ok {
			delete(a.queries, m.Token)
			if pq.cancel != nil {
				pq.cancel()
			}
			pq.cb(m.Snapshot)
		}
	}
}
