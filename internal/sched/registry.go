// Package sched implements the paper's market-driven coordination of
// multiple concurrent ALM sessions (Section 5.3). There is no global
// scheduler: each session plans for itself with the Leafset+adjust
// algorithm, armed with the per-node degree tables that SOMO gathers,
// and competes for helper slots purely on priority. Higher-priority
// sessions may preempt lower-priority reservations; preempted sessions
// replan. Members always hold the highest priority on their own nodes,
// so every session is guaranteed at least its members-only plan.
package sched

import (
	"cmp"
	"fmt"
	"slices"
)

// SessionID identifies a session in degree tables.
type SessionID int

// MemberPriority is the effective priority a session has on its own
// members' nodes — stronger than any market priority, so a node can
// always serve the session it belongs to (Section 5.3: "it is fair to
// have that job be of the highest priority in that node").
const MemberPriority = 0

// PreemptGuard lets a control plane veto individual preemptions: it is
// consulted for every allocation a reservation would displace and
// returns whether displacing that session is currently allowed. A nil
// guard allows everything (the plain market rule: strictly lower
// priority is always preemptable). Guards must be pure with respect to
// registry state — they may read control-plane state (rate limits,
// hold-downs) but must not mutate the registry.
type PreemptGuard func(victim SessionID) bool

// allocation is one session's hold on some of a node's degree slots.
type allocation struct {
	Session  SessionID
	Priority int // MemberPriority or the session's market priority (1..3)
	Slots    int
}

// DegreeTable is one node's capacity ledger (the paper's Figure 9
// structure, gathered and disseminated by SOMO): its degree bound,
// whether it has failed, and the per-priority allocations holding its
// slots, with their sums cached. Every per-host market rule is a method
// here that reads and writes this table alone; Registry adds only the
// index of which hosts each session holds.
type DegreeTable struct {
	// firm[c] is the slots held at priority <= c for each class c in
	// 0..NumClasses (cumulative, so the unguarded availability at class
	// c is bound-firm[c]); used is the slots held at any priority. used
	// > firm[c] exactly when some allocation is preemptable at class c —
	// the only case a guard has anything to veto. An availability read
	// is a few loads instead of a walk over allocs.
	firm  [NumClasses + 1]int32
	used  int32
	bound int32
	// dead marks a failed host: it offers no capacity and accepts no
	// reservations until revived.
	dead   bool
	allocs []allocation
}

// Bound returns the node's degree bound, fixed when the registry was
// built.
func (d *DegreeTable) Bound() int { return int(d.bound) }

// Used returns the total slots currently allocated.
func (d *DegreeTable) Used() int { return int(d.used) }

// Allocations returns a copy of the current allocations (reporting).
func (d *DegreeTable) Allocations() []allocation {
	return append([]allocation(nil), d.allocs...)
}

// account applies a change of delta slots at priority pri to the cached
// counters. Priorities below 0 count in every class; priorities above
// NumClasses only in used.
func (d *DegreeTable) account(pri, delta int) {
	d.used += int32(delta)
	for k := max(pri, 0); k <= NumClasses; k++ {
		d.firm[k] += int32(delta)
	}
}

// firmFor returns the slots a priority-p requester cannot obtain:
// equal-or-higher rank, plus lower rank the guard vetoes. The counters
// answer whenever the guard could not change the answer (no guard, or
// nothing preemptable); otherwise the allocations are walked and the
// guard is consulted exactly once per strictly-lower-rank allocation.
func (d *DegreeTable) firmFor(p int, guard PreemptGuard) int {
	if uint(p) <= NumClasses && (guard == nil || d.used == d.firm[p]) {
		return int(d.firm[p])
	}
	firm := 0
	for _, a := range d.allocs {
		if a.Priority <= p || (guard != nil && !guard(a.Session)) {
			firm += a.Slots
		}
	}
	return firm
}

// available returns the slots a priority-p requester could obtain (zero
// on a dead node).
func (d *DegreeTable) available(p int, guard PreemptGuard) int {
	if d.dead {
		return 0
	}
	return max(int(d.bound)-d.firmFor(p, guard), 0)
}

// reserve grants sid slots at priority p, displacing strictly-lower
// priority allocations the guard allows — numerically largest priority
// first, then by session — until the request fits, and appends the
// displaced allocations to displaced in that order. It refuses on a
// dead node, or when even full preemption cannot fit the request; h
// names the node in the refusal.
func (d *DegreeTable) reserve(h int, displaced []allocation, slots, p int, sid SessionID, guard PreemptGuard) ([]allocation, error) {
	if d.dead {
		return nil, fmt.Errorf("sched: host %d is dead", h)
	}
	if firm := d.firmFor(p, guard); int(d.bound)-firm < slots {
		return nil, fmt.Errorf("sched: host %d cannot fit %d slots at priority %d (bound %d, firm %d)",
			h, slots, p, d.bound, firm)
	}
	if need := slots - int(d.bound-d.used); need > 0 {
		var buf [8]int
		idx := buf[:0]
		for i, a := range d.allocs {
			if a.Priority > p && (guard == nil || guard(a.Session)) {
				idx = append(idx, i)
			}
		}
		slices.SortFunc(idx, func(x, y int) int {
			ax, ay := d.allocs[x], d.allocs[y]
			return cmp.Or(cmp.Compare(ay.Priority, ax.Priority), cmp.Compare(ax.Session, ay.Session))
		})
		for _, i := range idx {
			if need <= 0 {
				break
			}
			a := &d.allocs[i]
			need -= a.Slots
			displaced = append(displaced, *a)
			d.account(a.Priority, -a.Slots)
			a.Slots = 0 // dropped; compacted away below
		}
		d.allocs = slices.DeleteFunc(d.allocs, func(a allocation) bool { return a.Slots == 0 })
	}
	d.account(p, slots)
	// Merge with an existing allocation by the same session at the
	// same priority, if any.
	for i := range d.allocs {
		if d.allocs[i].Session == sid && d.allocs[i].Priority == p {
			d.allocs[i].Slots += slots
			return displaced, nil
		}
	}
	d.allocs = append(d.allocs, allocation{Session: sid, Priority: p, Slots: slots})
	return displaced, nil
}

// drop removes every allocation sid holds here.
func (d *DegreeTable) drop(sid SessionID) {
	kept := d.allocs[:0]
	for _, a := range d.allocs {
		if a.Session != sid {
			kept = append(kept, a)
		} else {
			d.account(a.Priority, -a.Slots)
		}
	}
	d.allocs = kept
}

// kill marks the node failed and empties it, returning what it held:
// the slots are gone with the host, and their holders must replan. A
// node already dead returns nothing.
func (d *DegreeTable) kill() []allocation {
	if d.dead {
		return nil
	}
	held := d.allocs
	*d = DegreeTable{bound: d.bound, dead: true}
	return held
}

// Registry is the cluster-wide collection of degree tables. In the
// deployed system each node publishes its table through SOMO and task
// managers read the root report; the registry is that database.
type Registry struct {
	tables []DegreeTable
	// holdings indexes each session's allocations by host (host →
	// slots), so Release and HeldBy touch only the hosts a session
	// actually uses instead of scanning every table — the difference
	// between O(pool) and O(tree) per replan once thousands of
	// sessions churn against one pool.
	holdings map[SessionID]map[int]int
}

// NewRegistry creates a registry for hosts 0..len(bounds)-1 with the
// given degree bounds.
func NewRegistry(bounds []int) *Registry {
	r := &Registry{
		tables:   make([]DegreeTable, len(bounds)),
		holdings: make(map[SessionID]map[int]int),
	}
	for i, b := range bounds {
		r.tables[i].bound = int32(b)
	}
	return r
}

// hold records sid gaining slots on host h in the holdings index.
func (r *Registry) hold(sid SessionID, h, slots int) {
	m := r.holdings[sid]
	if m == nil {
		m = make(map[int]int)
		r.holdings[sid] = m
	}
	m[h] += slots
}

// unhold records sid losing slots on host h.
func (r *Registry) unhold(sid SessionID, h, slots int) {
	m := r.holdings[sid]
	if m == nil {
		return
	}
	m[h] -= slots
	if m[h] <= 0 {
		delete(m, h)
	}
	if len(m) == 0 {
		delete(r.holdings, sid)
	}
}

// SetDead marks host h failed: its existing allocations are dropped
// (the slots are gone with the host — holders must replan) and
// AvailableFor reports zero until Revive. Idempotent.
func (r *Registry) SetDead(h int) {
	for _, a := range r.tables[h].kill() {
		r.unhold(a.Session, h, a.Slots)
	}
}

// Revive clears host h's dead mark; its table starts empty. Idempotent.
func (r *Registry) Revive(h int) { r.tables[h].dead = false }

// Dead reports whether host h is marked failed.
func (r *Registry) Dead(h int) bool { return r.tables[h].dead }

// NumHosts returns the number of hosts tracked.
func (r *Registry) NumHosts() int { return len(r.tables) }

// Table returns host h's degree table (read-only use).
func (r *Registry) Table(h int) *DegreeTable { return &r.tables[h] }

// AvailableFor returns the slots a priority-p requester could obtain on
// host h (zero for a dead host).
func (r *Registry) AvailableFor(h, p int) int {
	return r.tables[h].available(p, nil)
}

// AvailableForGuarded is AvailableFor under a preemption guard.
func (r *Registry) AvailableForGuarded(h, p int, guard PreemptGuard) int {
	return r.tables[h].available(p, guard)
}

// Reserve grants sid `slots` slots on host h at priority p, preempting
// strictly-lower-priority allocations (highest numeric priority first)
// as needed. It returns the sessions that lost slots. It fails if even
// full preemption cannot fit the request.
func (r *Registry) Reserve(h int, slots int, p int, sid SessionID) ([]SessionID, error) {
	return r.ReserveGuarded(h, slots, p, sid, nil)
}

// ReserveGuarded is Reserve under a preemption guard: allocations the
// guard vetoes are treated as firm, so the request fails rather than
// displace them. A nil guard is plain Reserve.
func (r *Registry) ReserveGuarded(h int, slots int, p int, sid SessionID, guard PreemptGuard) ([]SessionID, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("sched: reserve of %d slots on host %d", slots, h)
	}
	var buf [8]allocation
	displaced, err := r.tables[h].reserve(h, buf[:0], slots, p, sid, guard)
	if err != nil {
		return nil, err
	}
	var victims []SessionID
	for _, a := range displaced {
		victims = append(victims, a.Session)
		r.unhold(a.Session, h, a.Slots)
	}
	r.hold(sid, h, slots)
	return victims, nil
}

// Release drops all of sid's allocations. The holdings index makes
// this proportional to the hosts the session actually uses.
func (r *Registry) Release(sid SessionID) {
	for h := range r.holdings[sid] {
		r.tables[h].drop(sid)
	}
	delete(r.holdings, sid)
}

// HeldBy returns the total slots sid holds across all hosts.
func (r *Registry) HeldBy(sid SessionID) int {
	s := 0
	for _, slots := range r.holdings[sid] {
		s += slots
	}
	return s
}

// HeldOn returns the slots sid holds on host h.
func (r *Registry) HeldOn(sid SessionID, h int) int {
	return r.holdings[sid][h]
}

// CheckInvariants verifies no table is over-allocated, that the
// holdings index agrees with the tables, and that every cached counter
// equals its recomputation from allocs; tests and the invariant audit
// call this after every scheduling wave.
func (r *Registry) CheckInvariants() error {
	indexed := 0
	for h := range r.tables {
		t := &r.tables[h]
		var firm [NumClasses + 1]int32
		used := 0
		for _, a := range t.allocs {
			if a.Slots <= 0 {
				return fmt.Errorf("sched: host %d has empty allocation for session %d", h, a.Session)
			}
			if got := r.holdings[a.Session][h]; got < a.Slots {
				return fmt.Errorf("sched: holdings index for session %d on host %d has %d slots, table has >= %d",
					a.Session, h, got, a.Slots)
			}
			used += a.Slots
			for c := range firm {
				if a.Priority <= c {
					firm[c] += int32(a.Slots)
				}
			}
		}
		if used > t.Bound() {
			return fmt.Errorf("sched: host %d over-allocated: %d > %d", h, used, t.Bound())
		}
		if t.used != int32(used) || t.firm != firm {
			return fmt.Errorf("sched: host %d cached counters used %d firm %v, allocations say used %d firm %v",
				h, t.used, t.firm, used, firm)
		}
		indexed += used
	}
	total := 0
	for _, m := range r.holdings {
		for _, s := range m {
			total += s
		}
	}
	if total != indexed {
		return fmt.Errorf("sched: holdings index totals %d slots, tables hold %d", total, indexed)
	}
	return nil
}
