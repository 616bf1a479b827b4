package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"p2ppool/internal/alm"
	"p2ppool/internal/core"
	"p2ppool/internal/dht"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/ids"
	"p2ppool/internal/invariant"
	"p2ppool/internal/par"
	"p2ppool/internal/sched"
	"p2ppool/internal/transport"
)

// AuditOptions parameterizes the invariant audit: full-stack scenarios
// (DHT ring + SOMO agents + a scheduled ALM session) swept by the
// cross-layer invariant registry while a scripted fault schedule
// applies churn, a partition window, and repairs. Every run is
// deterministic in its seed; a violating run's fault script is shrunk
// by delta debugging to a minimal reproduction.
type AuditOptions struct {
	// Hosts is the pool size per scenario.
	Hosts int
	// GroupSize is the ALM session size including the root.
	GroupSize int
	// Seeds is how many independent scenarios to sweep.
	Seeds int
	// Window is the churn window; faults only fire inside it.
	Window eventsim.Time
	// Settle is the quiescence period after the window (everything is
	// healed and restarted at the window's end); the eventual-phase
	// checks run once it elapses. It must exceed the protocols' own
	// repair bounds (finger purge, suspect re-probing, SOMO TTL).
	Settle eventsim.Time
	// SweepEvery is the continuous-check sweep interval.
	SweepEvery eventsim.Time
	// PartitionAt / PartitionFor place the partition window. Odd seeds
	// split the ring into two contiguous arcs; even seeds interleave
	// alternating ring positions (the hardest re-merge case).
	PartitionAt  eventsim.Time
	PartitionFor eventsim.Time
	Seed         int64
	// Workers bounds the parallelism; <= 0 means runtime.NumCPU(). The
	// output is identical for any worker count.
	Workers int
}

func (o AuditOptions) withDefaults() AuditOptions {
	if o.Hosts <= 0 {
		o.Hosts = 48
	}
	if o.GroupSize <= 0 {
		o.GroupSize = 12
	}
	if o.Seeds <= 0 {
		o.Seeds = 20
	}
	if o.Window <= 0 {
		o.Window = 150 * eventsim.Second
	}
	if o.Settle <= 0 {
		o.Settle = 60 * eventsim.Second
	}
	if o.SweepEvery <= 0 {
		o.SweepEvery = 2 * eventsim.Second
	}
	if o.PartitionAt <= 0 {
		// Late enough that the long-outage victim (down since t=5s) has
		// been gone longer than the DHT's suspect TTL (30 * the 3s
		// failure timeout) when it restarts mid-partition.
		o.PartitionAt = 100 * eventsim.Second
	}
	if o.PartitionFor <= 0 {
		o.PartitionFor = 25 * eventsim.Second
	}
	return o
}

// The churn every scenario runs under.
const (
	// auditRate is crashes per virtual minute: with 20 s restarts about
	// two hosts are down at any time, so repairs overlap each other and
	// the partition.
	auditRate = 6
	// auditDetectDelay models failure detection (crash-to-NodeFailed,
	// and partition-to-declaration): the ring's own 3 s failure
	// timeout, so the control plane learns of a death when the DHT does.
	auditDetectDelay = 3 * eventsim.Second
	// auditRestartDelay is a crashed host's downtime: past detection
	// and repair, well short of the 90 s suspect TTL that only the
	// long-outage victim is meant to outlast.
	auditRestartDelay = 20 * eventsim.Second
)

// auditOp is one kind of scripted fault action.
type auditOp int

const (
	opCrash auditOp = iota
	opRestart
	opPartition
	opHeal
)

func (op auditOp) String() string {
	switch op {
	case opCrash:
		return "crash"
	case opRestart:
		return "restart"
	case opPartition:
		return "partition"
	default:
		return "heal"
	}
}

// auditAction is one scripted fault. The script is plain data so the
// shrinker can replay arbitrary subsequences: crashing a crashed host,
// restarting a live one, and healing without a partition are no-ops,
// so every subsequence is a valid scenario.
type auditAction struct {
	At   eventsim.Time
	Op   auditOp
	Host int // crash/restart target; unused for partition/heal
}

func (a auditAction) String() string {
	switch a.Op {
	case opCrash, opRestart:
		return fmt.Sprintf("%s %d@%.1fs", a.Op, a.Host, float64(a.At)/1000)
	default:
		return fmt.Sprintf("%s@%.1fs", a.Op, float64(a.At)/1000)
	}
}

func renderScript(script []auditAction) string {
	if len(script) == 0 {
		return "(empty)"
	}
	parts := make([]string, len(script))
	for i, a := range script {
		parts[i] = a.String()
	}
	return strings.Join(parts, "; ")
}

// auditRoster is the pre-drawn cast of one scenario: node IDs, ALM
// degree bounds, the session roster, and the partition cut. Both the
// script generator and the runner derive it from the seed alone, so
// the generator can place faults relative to ring positions (e.g. "a
// host on the far side of the cut") and the runner reproduces the
// exact same world.
type auditRoster struct {
	ids     []ids.ID
	degrees []int
	root    int
	members []int
	// ringHosts lists hosts in ring-ID order.
	ringHosts []int
	// near/far are the partition groups; the session root (the control
	// plane's observer) is always on the near side. Odd seeds cut the
	// ring into two contiguous arcs; even seeds interleave alternating
	// ring positions (the hardest re-merge case).
	near, far []int
	// longVictim is a far-side host reserved for the long-outage
	// scenario: it crashes early, stays down past the DHT's suspect
	// TTL, and restarts while the partition separates it from the
	// session root it rejoins through.
	longVictim int
}

func makeRoster(runSeed int64, opts AuditOptions) auditRoster {
	r := rand.New(rand.NewSource(runSeed + 2))
	ro := auditRoster{
		ids: dht.RandomIDs(opts.Hosts, r),
	}
	ro.degrees = alm.PaperDegrees(opts.Hosts, r)
	perm := r.Perm(opts.Hosts)
	ro.root = perm[0]
	ro.members = append([]int(nil), perm[1:opts.GroupSize]...)
	ro.ringHosts = make([]int, opts.Hosts)
	for h := range ro.ringHosts {
		ro.ringHosts[h] = h
	}
	sort.Slice(ro.ringHosts, func(i, j int) bool {
		return ro.ids[ro.ringHosts[i]] < ro.ids[ro.ringHosts[j]]
	})
	var a, b []int
	if runSeed%2 != 0 {
		a = append(a, ro.ringHosts[:len(ro.ringHosts)/2]...)
		b = append(b, ro.ringHosts[len(ro.ringHosts)/2:]...)
	} else {
		for i, h := range ro.ringHosts {
			if i%2 == 0 {
				a = append(a, h)
			} else {
				b = append(b, h)
			}
		}
	}
	ro.near, ro.far = a, b
	for _, h := range ro.far {
		if h == ro.root {
			ro.near, ro.far = b, a
			break
		}
	}
	ro.longVictim = ro.far[0]
	return ro
}

// genAuditScript pre-draws one scenario's fault schedule: Poisson
// crashes with paired restarts (the session root is never a target),
// one partition window, and one long outage — a far-side host that
// crashes early, stays down past the DHT's suspect TTL, and restarts
// mid-partition, so its rejoin has to work with no neighbor still
// probing for it and the seed unreachable.
func genAuditScript(runSeed int64, ro auditRoster, opts AuditOptions) []auditAction {
	frng := rand.New(rand.NewSource(runSeed*1000 + 7))
	targets := make([]int, 0, opts.Hosts-1)
	for h := 0; h < opts.Hosts; h++ {
		if h != ro.root && h != ro.longVictim {
			targets = append(targets, h)
		}
	}
	var script []auditAction
	for _, cr := range poissonCrashes(frng, auditRate, 0, opts.Window, len(targets)) {
		victim := targets[cr.pick]
		script = append(script, auditAction{At: cr.at, Op: opCrash, Host: victim})
		if restart := cr.at + auditRestartDelay; restart < opts.Window {
			script = append(script, auditAction{At: restart, Op: opRestart, Host: victim})
		}
	}
	script = append(script,
		auditAction{At: 5 * eventsim.Second, Op: opCrash, Host: ro.longVictim},
		auditAction{At: opts.PartitionAt + auditDetectDelay + 5*eventsim.Second, Op: opRestart, Host: ro.longVictim},
		auditAction{At: opts.PartitionAt, Op: opPartition},
		auditAction{At: opts.PartitionAt + opts.PartitionFor, Op: opHeal},
	)
	sort.SliceStable(script, func(i, j int) bool { return script[i].At < script[j].At })
	return script
}

// auditOutcome is what one scenario run reports.
type auditOutcome struct {
	Sweeps     int
	ChecksRun  int
	Crashes    int
	Restarts   int
	Violations []timedViolation
	// Err records a harness failure (e.g. the scheduler could not plan
	// at all); it counts as a failed audit.
	Err string
}

func (o auditOutcome) hasCheck(name string) bool {
	for _, v := range o.Violations {
		if v.V.Check == name {
			return true
		}
	}
	return false
}

// auditSeedReport is one row of the audit table, shrink included.
type auditSeedReport struct {
	Seed    int64
	Actions int
	Outcome auditOutcome
	// FirstCheck is the first violated check; Shrunk is its minimal
	// reproducing fault script (empty when no violation).
	FirstCheck string
	Shrunk     []auditAction
	Replays    int
}

// AuditResult is the invariant audit across seeds.
type AuditResult struct {
	Opts    AuditOptions
	Checks  []string
	Reports []auditSeedReport
}

// ViolationCount returns the total violations (plus harness errors)
// across all seeds — the audit passes iff it is zero.
func (r *AuditResult) ViolationCount() int {
	n := 0
	for _, rep := range r.Reports {
		n += len(rep.Outcome.Violations)
		if rep.Outcome.Err != "" {
			n++
		}
	}
	return n
}

// Audit sweeps the invariant registry over Seeds independent
// churn/partition/repair scenarios. Scenarios run in parallel; each is
// deterministic in its seed, and a violating scenario's fault script
// is shrunk (delta debugging over the script, replaying through the
// deterministic eventsim) to a minimal reproduction.
func Audit(opts AuditOptions) (*AuditResult, error) {
	opts = opts.withDefaults()
	if err := checkGroupSize(opts.GroupSize, opts.Hosts); err != nil {
		return nil, err
	}
	reports, err := par.MapErr(opts.Workers, opts.Seeds, func(i int) (auditSeedReport, error) {
		runSeed := opts.Seed + int64(i)
		ro := makeRoster(runSeed, opts)
		script := genAuditScript(runSeed, ro, opts)
		rep := auditSeedReport{Seed: runSeed, Actions: len(script)}
		rep.Outcome = auditRun(runSeed, ro, script, opts)
		if rep.Outcome.Err == "" && len(rep.Outcome.Violations) > 0 {
			rep.FirstCheck = rep.Outcome.Violations[0].V.Check
			rep.Shrunk = invariant.Shrink(script, func(sub []auditAction) bool {
				rep.Replays++
				out := auditRun(runSeed, ro, sub, opts)
				return out.Err == "" && out.hasCheck(rep.FirstCheck)
			})
		}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	return &AuditResult{Opts: opts, Checks: invariant.NewRegistry().Names(), Reports: reports}, nil
}

// auditRun executes one scenario under the given fault script and
// sweeps the invariant registry over it.
func auditRun(runSeed int64, ro auditRoster, script []auditAction, opts AuditOptions) auditOutcome {
	lat := func(a, b int) float64 {
		if a == b {
			return 0
		}
		d := a - b
		if d < 0 {
			d = -d
		}
		return 20 + 3*float64(d%17)
	}
	w := newFaultWorld(runSeed, runSeed*100+7, lat)
	engine, f := w.engine, w.net

	// --- the pool: DHT ring + SOMO agents ---
	degrees := ro.degrees
	sess := &sched.Session{
		ID:       1,
		Priority: 1,
		Root:     ro.root,
		Members:  append([]int(nil), ro.members...),
	}
	// Nodes and agents are indexed by host, and agents created in host
	// order; the roster drew the IDs so the script generator could place
	// faults by ring position.
	_, nodes, err := core.Ring(core.OnNet(f), ro.ids, dht.Config{
		LeafsetRadius:     8,
		HeartbeatInterval: eventsim.Second,
		FailureTimeout:    3 * eventsim.Second,
		Fingers:           12,
		// The suspect TTL is dht's 30x this FailureTimeout =
		// 90s; the long-outage victim is engineered to restart after
		// every suspect expired.
	})
	if err != nil {
		return auditOutcome{Err: err.Error()}
	}
	agents, reattach := core.AttachSOMO(nodes, churnSOMO(2*eventsim.Second), hostPayload)

	// --- the session and its scheduler ---
	sc := sched.NewScheduler(degrees, lat, sched.Config{})
	if err := sc.AddSession(sess); err != nil {
		return auditOutcome{Err: err.Error()}
	}
	if _, err := sc.Stabilize(); err != nil {
		return auditOutcome{Err: err.Error()}
	}

	// --- control plane: detection, repair, rejoin ---
	expected := 0 // replans the harness has caused
	declareFailed := func(h int) {
		expected += len(sc.NodeFailed(h))
	}
	stabilize := func() {
		if _, err := sc.Stabilize(); err != nil {
			w.fail(fmt.Errorf("stabilize: %w", err))
		}
	}
	recoverHost := func(h int) {
		sc.NodeRecovered(h)
		sc.Rejoin(h)
	}

	// A crash stops the host's protocol stack at once; the control
	// plane hears of it only at detection.
	f.OnCrash(func(a transport.Addr) {
		agents[a].Stop()
		nodes[a].Stop()
	})
	w.watch(auditDetectDelay, func(h int) {
		declareFailed(h)
		stabilize()
	}, func(h int) {
		nodes[h].Join(nodes[sess.Root].Self())
		reattach(h)
		recoverHost(h)
		stabilize()
	})

	// --- partition bookkeeping ---
	near := make([]transport.Addr, len(ro.near))
	for i, h := range ro.near {
		near[i] = transport.Addr(h)
	}
	far := make([]transport.Addr, len(ro.far))
	for i, h := range ro.far {
		far[i] = transport.Addr(h)
	}
	partEpoch := 0
	partActive := false
	applyPartition := func() {
		f.Partition(near, far)
		partActive = true
		partEpoch++
		epoch := partEpoch
		f.After(auditDetectDelay, func() {
			if !partActive || epoch != partEpoch {
				return
			}
			// The observer side declares everyone beyond the cut failed
			// — the second detection path for hosts that also crashed.
			for _, h := range ro.far {
				declareFailed(h)
			}
			stabilize()
		})
	}
	// Heal revives the hosts the partition declared: a restart always
	// revives, so those are exactly the dead hosts that have not crashed.
	applyHeal := func() {
		f.Heal()
		partActive = false
		for h := 0; h < opts.Hosts; h++ {
			if sc.Registry().Dead(h) && !f.Crashed(transport.Addr(h)) {
				recoverHost(h)
			}
		}
		stabilize()
	}

	// --- install the script ---
	for _, a := range script {
		a := a
		engine.At(a.At, func() {
			switch a.Op {
			case opCrash:
				f.Crash(transport.Addr(a.Host))
			case opRestart:
				f.Restart(transport.Addr(a.Host))
			case opPartition:
				applyPartition()
			case opHeal:
				applyHeal()
			}
		})
	}
	// End-of-window cleanup: whatever subset of the script ran, the
	// scenario always converges — heal, restart everyone, rejoin — so
	// the eventual-phase checks at the end of the settle period judge a
	// quiescent system (and so every shrinker subsequence is valid).
	engine.At(opts.Window, func() {
		if partActive {
			applyHeal()
		}
		for _, a := range f.CrashedAddrs() {
			f.Restart(a)
		}
		stabilize()
	})

	// --- invariant sweeps ---
	view := w.view(sc, degrees, auditDetectDelay+2*eventsim.Second)
	view.Nodes, view.Agents = nodes, agents
	view.ExpectedReplans = func() int { return expected }
	view.StalenessSlack = 3 * eventsim.Second
	var out auditOutcome
	end := opts.Window + opts.Settle
	for t := opts.SweepEvery; t < end; t += opts.SweepEvery {
		engine.At(t, func() { w.sweep(view, invariant.Continuous) })
		out.Sweeps++
	}
	engine.At(end, func() { w.sweep(view, invariant.Eventual) })
	out.Sweeps++
	// Every continuous check runs in every sweep, the eventual sweep
	// included; each eventual check runs once.
	for _, c := range w.checks.Checks() {
		if c.Phase == invariant.Continuous {
			out.ChecksRun += out.Sweeps
		} else {
			out.ChecksRun++
		}
	}

	if err := w.run(end + eventsim.Second); err != nil {
		out.Err = err.Error()
	}
	ctr := f.Counters()
	out.Crashes, out.Restarts = int(ctr.Crashes), int(ctr.Restarts)
	out.Violations = w.violations
	return out
}

// Tables renders the audit.
func (r *AuditResult) Tables() []Table {
	sweep := Table{
		Title:   "Audit: invariant sweep under churn, partition and repair",
		Columns: []string{"seed", "actions", "crashes", "restarts", "sweeps", "checks run", "violations", "status"},
		Note: fmt.Sprintf("%d cross-layer checks (%s); continuous checks sweep every %.0fs through a %.0fs churn "+
			"window, eventual checks judge quiescence %.0fs after everything heals; a violating run's fault script "+
			"is shrunk by delta debugging to a minimal reproduction",
			len(r.Checks), strings.Join(r.Checks, ", "),
			float64(r.Opts.SweepEvery)/1000, float64(r.Opts.Window)/1000, float64(r.Opts.Settle)/1000),
	}
	var bad []auditSeedReport
	for _, rep := range r.Reports {
		status := "ok"
		switch {
		case rep.Outcome.Err != "":
			status = "error: " + rep.Outcome.Err
		case len(rep.Outcome.Violations) > 0:
			status = "VIOLATION"
			bad = append(bad, rep)
		}
		sweep.Rows = append(sweep.Rows, []string{
			d(int(rep.Seed)), d(rep.Actions), d(rep.Outcome.Crashes), d(rep.Outcome.Restarts),
			d(rep.Outcome.Sweeps), d(rep.Outcome.ChecksRun), d(len(rep.Outcome.Violations)), status,
		})
	}
	tables := []Table{sweep}
	if len(bad) > 0 {
		viol := Table{
			Title:   "Audit: violations and shrunk reproductions",
			Columns: []string{"seed", "check", "at (s)", "host", "detail", "script", "shrunk", "replays", "reproduction"},
			Note: "script/shrunk = fault-script length before/after delta debugging; the reproduction column is " +
				"the minimal fault sequence that still triggers the first violated check",
		}
		for _, rep := range bad {
			first := rep.Outcome.Violations[0]
			viol.Rows = append(viol.Rows, []string{
				d(int(rep.Seed)), first.V.Check, f1(float64(first.At) / 1000), d(first.V.Host),
				first.V.Detail, d(rep.Actions), d(len(rep.Shrunk)), d(rep.Replays),
				renderScript(rep.Shrunk),
			})
		}
		tables = append(tables, viol)
	}
	return tables
}
