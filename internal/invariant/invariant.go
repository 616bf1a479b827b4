// Package invariant is the machine-checked statement of the global
// correctness properties that tie the simulator's layers together: DHT
// ring consistency, SOMO tree well-formedness, ALM session integrity,
// and scheduler conservation. A Registry of cross-layer checks is swept
// over a live simulation (a World view assembled by the harness) at
// virtual-clock intervals; every property that fails produces a
// Violation naming the check, the offending host, and the evidence.
//
// Checks come in two phases. Continuous checks hold at every instant,
// even mid-churn (a leafset is always sorted; a degree table is never
// over-allocated). Eventual checks are convergence properties that only
// hold at quiescence — after churn stops and the protocols' own repair
// bounds have elapsed (leafset symmetry, successor/predecessor
// agreement, SOMO coverage). The audit driver sweeps Continuous checks
// throughout a scenario and both phases once the system has settled.
package invariant

import (
	"fmt"
	"sort"

	"p2ppool/internal/dht"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/sched"
	"p2ppool/internal/somo"
)

// Phase classifies when a check is expected to hold.
type Phase int

const (
	// Continuous checks hold at every instant of a run, even mid-churn.
	Continuous Phase = iota
	// Eventual checks hold only at quiescence: no faults in flight and
	// the protocols' repair bounds elapsed.
	Eventual
)

// Violation is one failed property instance.
type Violation struct {
	// Check is the name of the violated check (e.g. "dht/leafset-sorted").
	Check string
	// Host is the offending host index, or -1 when the property is
	// global.
	Host int
	// Detail is the evidence, rendered deterministically.
	Detail string
}

func (v Violation) String() string {
	if v.Host < 0 {
		return fmt.Sprintf("%s: %s", v.Check, v.Detail)
	}
	return fmt.Sprintf("%s: host %d: %s", v.Check, v.Host, v.Detail)
}

// Check is one named property over a World.
type Check struct {
	Name  string
	Phase Phase
	Fn    func(w *World) []Violation
}

// Registry holds an ordered set of checks. Sweep order is the
// registration order, so output is deterministic.
type Registry struct {
	checks []Check
}

// NewRegistry returns a registry loaded with the standard cross-layer
// checks.
func NewRegistry() *Registry {
	r := &Registry{}
	for _, c := range standardChecks() {
		r.Add(c)
	}
	return r
}

// Add appends a check. Names must be unique; duplicates panic (a
// duplicate name would make violation attribution ambiguous).
func (r *Registry) Add(c Check) {
	for _, have := range r.checks {
		if have.Name == c.Name {
			panic("invariant: duplicate check " + c.Name)
		}
	}
	r.checks = append(r.checks, c)
}

// Checks returns the registered checks in sweep order.
func (r *Registry) Checks() []Check {
	return append([]Check(nil), r.checks...)
}

// Names returns the registered check names in sweep order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.checks))
	for i, c := range r.checks {
		out[i] = c.Name
	}
	return out
}

// Sweep runs every check whose phase is enabled: Continuous sweeps run
// only the continuous checks; Eventual sweeps run both phases.
func (r *Registry) Sweep(w *World, phase Phase) []Violation {
	var out []Violation
	for _, c := range r.checks {
		if c.Phase == Eventual && phase != Eventual {
			continue
		}
		out = append(out, c.Fn(w)...)
	}
	return out
}

func standardChecks() []Check {
	return []Check{
		{Name: "dht/leafset-sorted", Phase: Continuous, Fn: checkLeafsetSorted},
		{Name: "dht/finger-fresh", Phase: Continuous, Fn: checkFingerFresh},
		{Name: "dht/leafset-live", Phase: Eventual, Fn: checkLeafsetLive},
		{Name: "dht/leafset-symmetry", Phase: Eventual, Fn: checkLeafsetSymmetry},
		{Name: "dht/ring-agreement", Phase: Eventual, Fn: checkRingAgreement},
		{Name: "somo/rep-path", Phase: Continuous, Fn: checkSomoRepPath},
		{Name: "somo/root-unique", Phase: Eventual, Fn: checkSomoRootUnique},
		{Name: "somo/coverage", Phase: Eventual, Fn: checkSomoCoverage},
		{Name: "somo/staleness", Phase: Eventual, Fn: checkSomoStaleness},
		{Name: "alm/tree-valid", Phase: Continuous, Fn: checkTreeValid},
		{Name: "alm/degree-bound", Phase: Continuous, Fn: checkDegreeBound},
		{Name: "alm/dead-in-tree", Phase: Continuous, Fn: checkDeadInTree},
		{Name: "sched/ledger", Phase: Continuous, Fn: checkLedger},
		{Name: "sched/conservation", Phase: Continuous, Fn: checkConservation},
		{Name: "sched/replans", Phase: Continuous, Fn: checkReplans},
	}
}

// World is the harness-assembled view the checks read. Every field is
// optional: checks that need a missing layer report nothing, so the
// same registry audits DHT-only, DHT+SOMO, or full-stack scenarios.
type World struct {
	// Now is the sweep's virtual time.
	Now eventsim.Time

	// Nodes holds host h's DHT node at index h (nil when the host runs
	// none).
	Nodes []*dht.Node
	// Agents holds host h's SOMO agent at index h (nil when none).
	Agents []*somo.Agent

	// Down reports whether host h is currently crashed or partitioned
	// away from the observer (nil means "nothing is down").
	Down func(h int) bool
	// DownSince returns when host h last went down; ok is false while
	// the host is up. Checks with freshness allowances (finger purge,
	// repair lag) need it; when nil those allowances are skipped.
	DownSince func(h int) (eventsim.Time, bool)

	// Sched is the session coordinator; nil skips ALM/sched checks.
	Sched *sched.Scheduler
	// Bounds are the physical per-host degree bounds the registry was
	// built from.
	Bounds []int
	// RepairLag is how long a down host may linger in session trees
	// before alm/dead-in-tree fires: the harness's failure-detection
	// delay plus margin.
	RepairLag eventsim.Time
	// ExpectedReplans, when set, returns the harness ledger of how many
	// replans the live sessions should have accumulated; sched/replans
	// compares it against the sum of Session.Replans.
	ExpectedReplans func() int

	// StalenessSlack is added to the derived (depth+1)*T SOMO report
	// staleness bound to absorb routing and jitter.
	StalenessSlack eventsim.Time

	scr sweepScratch
}

// hostDown reports the harness's liveness verdict for h.
func (w *World) hostDown(h int) bool { return w.Down != nil && w.Down(h) }

// downFor returns how long host h has been down (0, false when up or
// unknown).
func (w *World) downFor(h int) (eventsim.Time, bool) {
	if w.DownSince == nil {
		return 0, false
	}
	since, ok := w.DownSince(h)
	if !ok {
		return 0, false
	}
	return w.Now - since, true
}

// liveNode reports whether host h runs an active, not-down DHT node.
func (w *World) liveNode(h int) bool {
	return h >= 0 && h < len(w.Nodes) && w.Nodes[h] != nil &&
		w.Nodes[h].Active() && !w.hostDown(h)
}

// liveHosts returns the hosts with live DHT nodes, sorted by ring ID.
func (w *World) liveHosts() []int {
	var out []int
	for h := range w.Nodes {
		if w.liveNode(h) {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return w.Nodes[out[i]].Self().ID < w.Nodes[out[j]].Self().ID
	})
	return out
}
