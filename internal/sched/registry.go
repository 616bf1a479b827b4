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
	"math"
	"slices"

	"p2ppool/internal/alm"
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
// here that reads and writes this table alone; Registry is these tables
// and nothing else.
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

// EachAllocation calls yield with each allocation's session, priority
// and slots, in table order, until yield returns false. It reads the
// table in place; Allocations is the copy.
func (d *DegreeTable) EachAllocation(yield func(sid SessionID, priority, slots int) bool) {
	for _, a := range d.allocs {
		if !yield(a.Session, a.Priority, a.Slots) {
			return
		}
	}
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
// first, then by session — until the request fits, and returns the
// displaced sessions in that order. It refuses on a dead node, or when
// even full preemption cannot fit the request; h names the node in the
// refusal.
func (d *DegreeTable) reserve(h, slots, p int, sid SessionID, guard PreemptGuard) ([]SessionID, error) {
	if d.dead {
		return nil, fmt.Errorf("sched: host %d is dead", h)
	}
	if firm := d.firmFor(p, guard); int(d.bound)-firm < slots {
		return nil, fmt.Errorf("sched: host %d cannot fit %d slots at priority %d (bound %d, firm %d)",
			h, slots, p, d.bound, firm)
	}
	var victims []SessionID
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
			victims = append(victims, a.Session)
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
			return victims, nil
		}
	}
	d.allocs = append(d.allocs, allocation{Session: sid, Priority: p, Slots: slots})
	return victims, nil
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

// kill marks the node failed and empties it: the slots are gone with
// the host, and their holders must replan.
func (d *DegreeTable) kill() {
	*d = DegreeTable{bound: d.bound, dead: true}
}

// opensTo reports whether a class-c requester could, ignoring any guard,
// obtain need slots here or preempt something here (used > firm[c]): the
// hosts where available(c, guard) can reach need, or a guard be asked.
func (d *DegreeTable) opensTo(c int, need int32) bool {
	return !d.dead && (d.bound-d.firm[c] >= need || d.used > d.firm[c])
}

// Registry is the cluster-wide collection of degree tables. In the
// deployed system each node publishes its table through SOMO and task
// managers read the root report; the registry is that database. It
// holds nothing per session: a session's root remembers the hosts it
// reserved on and releases there (Session.held).
type Registry struct {
	tables []DegreeTable
	// open[c-1] is the open-host index of market class c, one bit per
	// host: bit h is set exactly when tables[h].opensTo(c, openMin). A
	// host outside it offers a class-c requester fewer than openMin slots
	// whatever the guard says, and gives the guard nothing to veto, so a
	// helper search reads only the hosts inside. Kept by every call that
	// changes a table: Reserve, Release, SetDead and Revive.
	open    [NumClasses][]uint64
	openMin int32
}

// NewRegistry creates a registry for hosts 0..len(bounds)-1 with the
// given degree bounds, its open-host index kept at the paper's helper
// degree.
func NewRegistry(bounds []int) *Registry {
	return newRegistry(bounds, alm.DefaultMinDegree)
}

// newRegistry is NewRegistry with the open-host index kept at openMin
// slots: a scheduler's HelperMinDegree.
func newRegistry(bounds []int, openMin int) *Registry {
	r := &Registry{tables: make([]DegreeTable, len(bounds)), openMin: int32(openMin)}
	// A table starts live and empty, so it opens to every class exactly
	// when its bound reaches openMin.
	open := make([]uint64, (len(bounds)+63)/64)
	for i, b := range bounds {
		r.tables[i].bound = int32(b)
		if b >= openMin {
			open[i>>6] |= 1 << (i & 63)
		}
	}
	for c := range r.open {
		r.open[c] = slices.Clone(open)
	}
	return r
}

// reindex brings host h's bit in every class's open set up to date with
// its table.
func (r *Registry) reindex(h int) {
	t := &r.tables[h]
	w, bit := h>>6, uint64(1)<<(h&63)
	for i, set := range r.open {
		if t.opensTo(i+1, r.openMin) {
			set[w] |= bit
		} else {
			set[w] &^= bit
		}
	}
}

// openSet returns the open-host index a priority-p requester's helper
// search walks, p >= 1. A priority past the last class uses the last
// class's set: its availability there is no larger, and it can preempt
// only allocations past NumClasses, which count as preemptable in every
// class.
func (r *Registry) openSet(p int) []uint64 { return r.open[min(p, NumClasses)-1] }

// SetDead marks host h failed: its existing allocations are dropped
// (the slots are gone with the host — holders must replan) and it
// offers nothing until Revive. Idempotent.
func (r *Registry) SetDead(h int) {
	r.tables[h].kill()
	r.reindex(h)
}

// Revive clears host h's dead mark; its table starts empty. Idempotent.
func (r *Registry) Revive(h int) {
	r.tables[h].dead = false
	r.reindex(h)
}

// Dead reports whether host h is marked failed.
func (r *Registry) Dead(h int) bool { return r.tables[h].dead }

// NumHosts returns the number of hosts tracked.
func (r *Registry) NumHosts() int { return len(r.tables) }

// Table returns host h's degree table (read-only use).
func (r *Registry) Table(h int) *DegreeTable { return &r.tables[h] }

// Reserve grants sid `slots` slots on host h at priority p, preempting
// strictly-lower-priority allocations (highest numeric priority first)
// as needed, and returns the sessions that lost slots. Allocations the
// guard vetoes are treated as firm, so the request fails rather than
// displace them; a nil guard is the plain market rule. It fails if even
// full preemption cannot fit the request.
func (r *Registry) Reserve(h, slots, p int, sid SessionID, guard PreemptGuard) ([]SessionID, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("sched: reserve of %d slots on host %d", slots, h)
	}
	victims, err := r.tables[h].reserve(h, slots, p, sid, guard)
	r.reindex(h)
	return victims, err
}

// Release drops sid's allocations on each of hosts — the hosts its
// reservations were granted on. A host where sid no longer holds
// anything (preempted since, or killed) costs one empty drop, and a
// host may be listed more than once.
func (r *Registry) Release(sid SessionID, hosts []int) {
	for _, h := range hosts {
		r.tables[h].drop(sid)
		r.reindex(h)
	}
}

// CheckInvariants verifies no table is over-allocated, that every
// cached counter equals its recomputation from allocs, and that every
// class's open-host index holds exactly the live hosts that, by those
// allocs, offer openMin slots at the class or hold something it could
// preempt; tests and the invariant audit call this after every
// scheduling wave.
func (r *Registry) CheckInvariants() error {
	for h := range r.tables {
		t := &r.tables[h]
		var firm [NumClasses + 1]int32
		used, lowest := 0, math.MinInt // lowest: the numerically largest priority held
		for _, a := range t.allocs {
			if a.Slots <= 0 {
				return fmt.Errorf("sched: host %d has empty allocation for session %d", h, a.Session)
			}
			used += a.Slots
			lowest = max(lowest, a.Priority)
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
		for i, set := range r.open {
			c := i + 1
			want := !t.dead && (t.Bound()-int(firm[c]) >= int(r.openMin) || lowest > c)
			if got := set[h>>6]&(1<<(h&63)) != 0; got != want {
				return fmt.Errorf("sched: host %d in class %d's open-host index %v, its table says %v", h, c, got, want)
			}
		}
	}
	return nil
}
