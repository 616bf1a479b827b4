package invariant

import (
	"fmt"
	"sort"

	"p2ppool/internal/sched"
)

// dirtySet returns the sessions currently pending a replan. A dirty
// session's tree and reservations are transiently stale by design, so
// plan-consistency checks skip it; structural checks still apply.
func (w *World) dirtySet() map[sched.SessionID]bool {
	out := make(map[sched.SessionID]bool)
	for _, id := range w.Sched.DirtySessions() {
		out[id] = true
	}
	return out
}

// checkTreeValid: every (session, source) tree is structurally sound at
// every instant — no dangling parents, no cycles, children/parent maps
// agree, rooted at its source — and a settled (non-dirty) session
// covers all of its members with every source tree and has plans at
// all.
func checkTreeValid(w *World) []Violation {
	if w.Sched == nil {
		return nil
	}
	dirty := w.dirtySet()
	var out []Violation
	for _, s := range w.Sched.Sessions() {
		for _, st := range s.Trees() {
			if st.Tree == nil {
				if !dirty[s.ID] {
					out = append(out, Violation{Check: "alm/tree-valid", Host: st.Source,
						Detail: fmt.Sprintf("session %d source %d has no plan and is not pending one", s.ID, st.Source)})
				}
				continue
			}
			if err := st.Tree.Validate(nil); err != nil {
				out = append(out, Violation{Check: "alm/tree-valid", Host: st.Source,
					Detail: fmt.Sprintf("session %d source %d: %v", s.ID, st.Source, err)})
				continue
			}
			if st.Tree.Root != st.Source {
				out = append(out, Violation{Check: "alm/tree-valid", Host: st.Source,
					Detail: fmt.Sprintf("session %d tree rooted at %d, want source %d", s.ID, st.Tree.Root, st.Source)})
			}
			if dirty[s.ID] {
				continue
			}
			for _, m := range append([]int{s.Root}, s.Members...) {
				if m != st.Source && !st.Tree.Contains(m) {
					out = append(out, Violation{Check: "alm/tree-valid", Host: m,
						Detail: fmt.Sprintf("session %d member not covered by source %d's tree", s.ID, st.Source)})
				}
			}
		}
	}
	return out
}

// checkDegreeBound: no session ever loads a host beyond its physical
// degree bound — summed across all of the session's source trees, the
// shared-budget guarantee of the conferencing model — including right
// after Repair/Adjust, which is why this is continuous.
func checkDegreeBound(w *World) []Violation {
	if w.Sched == nil || len(w.Bounds) == 0 {
		return nil
	}
	var out []Violation
	for _, s := range w.Sched.Sessions() {
		load := make(map[int]int) // host -> summed degree across trees
		for _, st := range s.Trees() {
			if st.Tree == nil {
				continue
			}
			for _, v := range st.Tree.Nodes() {
				if v < 0 || v >= len(w.Bounds) {
					out = append(out, Violation{Check: "alm/degree-bound", Host: v,
						Detail: fmt.Sprintf("session %d source %d tree uses unknown host", s.ID, st.Source)})
					continue
				}
				load[v] += st.Tree.Degree(v)
			}
		}
		hosts := make([]int, 0, len(load))
		for v := range load {
			hosts = append(hosts, v)
		}
		sort.Ints(hosts)
		for _, v := range hosts {
			if load[v] > w.Bounds[v] {
				out = append(out, Violation{Check: "alm/degree-bound", Host: v,
					Detail: fmt.Sprintf("session %d loads host to degree %d across its trees, bound %d", s.ID, load[v], w.Bounds[v])})
			}
		}
	}
	return out
}

// checkDeadInTree: a settled session tree never routes through a host
// the registry knows is dead, and a crashed host disappears from every
// settled tree within RepairLag (the harness's detection delay).
func checkDeadInTree(w *World) []Violation {
	if w.Sched == nil {
		return nil
	}
	dirty := w.dirtySet()
	reg := w.Sched.Registry()
	var out []Violation
	for _, s := range w.Sched.Sessions() {
		if dirty[s.ID] {
			continue
		}
		for _, st := range s.Trees() {
			if st.Tree == nil {
				continue
			}
			for _, v := range st.Tree.Nodes() {
				if reg.Dead(v) {
					out = append(out, Violation{Check: "alm/dead-in-tree", Host: v,
						Detail: fmt.Sprintf("settled session %d source %d tree uses registry-dead host", s.ID, st.Source)})
					continue
				}
				if age, ok := w.downFor(v); ok && w.RepairLag > 0 && age > w.RepairLag {
					out = append(out, Violation{Check: "alm/dead-in-tree", Host: v,
						Detail: fmt.Sprintf("settled session %d source %d tree uses host down for %.0fms (repair lag %.0fms)",
							s.ID, st.Source, float64(age), float64(w.RepairLag))})
				}
			}
		}
	}
	return out
}

// checkLedger: helper-lease accounting — for every settled session the
// slots it holds on a host equal that host's degree summed across all
// of the session's source trees, and it holds nothing on hosts outside
// them; every allocation belongs to a known session.
func checkLedger(w *World) []Violation {
	if w.Sched == nil {
		return nil
	}
	dirty := w.dirtySet()
	reg := w.Sched.Registry()
	known := make(map[sched.SessionID]bool)
	trees := make(map[sched.SessionID]map[int]int) // session -> host -> summed degree
	for _, s := range w.Sched.Sessions() {
		known[s.ID] = true
		if dirty[s.ID] {
			continue
		}
		deg := make(map[int]int)
		planned := false
		for _, st := range s.Trees() {
			if st.Tree == nil {
				continue
			}
			planned = true
			for _, v := range st.Tree.Nodes() {
				if d := st.Tree.Degree(v); d > 0 {
					deg[v] += d
				}
			}
		}
		if !planned {
			continue
		}
		trees[s.ID] = deg
	}
	held := make(map[sched.SessionID]map[int]int)
	var out []Violation
	for h := 0; h < reg.NumHosts(); h++ {
		for _, a := range reg.Table(h).Allocations() {
			if !known[a.Session] {
				out = append(out, Violation{Check: "sched/ledger", Host: h,
					Detail: fmt.Sprintf("allocation of %d slots for unknown session %d", a.Slots, a.Session)})
				continue
			}
			if held[a.Session] == nil {
				held[a.Session] = make(map[int]int)
			}
			held[a.Session][h] += a.Slots
		}
	}
	for _, s := range w.Sched.Sessions() {
		deg, settled := trees[s.ID]
		if !settled {
			continue
		}
		// Compare only over hosts either side actually names — the sorted
		// union of tree-degree and holdings keys. Any host outside both
		// trivially agrees (0 == 0), so scanning the whole pool per
		// session would make the sweep O(sessions × hosts): at load-study
		// scale (thousands of sessions, thousands of hosts, a sweep every
		// few virtual seconds) that is the audit's entire budget.
		hosts := make([]int, 0, len(deg)+len(held[s.ID]))
		for h := range deg {
			hosts = append(hosts, h)
		}
		for h := range held[s.ID] {
			if _, both := deg[h]; !both {
				hosts = append(hosts, h)
			}
		}
		sort.Ints(hosts)
		for _, h := range hosts {
			want := deg[h]
			got := held[s.ID][h]
			if want != got {
				out = append(out, Violation{Check: "sched/ledger", Host: h,
					Detail: fmt.Sprintf("session %d holds %d slots, tree degree is %d", s.ID, got, want)})
			}
		}
	}
	return out
}

// checkConservation: claimed capacity never exceeds registry capacity,
// registry bounds match the physical bounds, and dead hosts hold no
// allocations.
func checkConservation(w *World) []Violation {
	if w.Sched == nil {
		return nil
	}
	reg := w.Sched.Registry()
	var out []Violation
	if err := reg.CheckInvariants(); err != nil {
		out = append(out, Violation{Check: "sched/conservation", Host: -1, Detail: err.Error()})
	}
	for h := 0; h < reg.NumHosts(); h++ {
		t := reg.Table(h)
		if len(w.Bounds) == reg.NumHosts() && t.Bound() != w.Bounds[h] {
			out = append(out, Violation{Check: "sched/conservation", Host: h,
				Detail: fmt.Sprintf("registry bound %d drifted from physical bound %d", t.Bound(), w.Bounds[h])})
		}
		if reg.Dead(h) && t.Used() > 0 {
			out = append(out, Violation{Check: "sched/conservation", Host: h,
				Detail: fmt.Sprintf("dead host still has %d slots allocated", t.Used())})
		}
	}
	return out
}

// checkReplans: the sum of Session.Replans matches the harness's count
// of observed failures and preemptions — double-fired failure
// detection (heartbeat loss plus partition detection) must not
// double-count.
func checkReplans(w *World) []Violation {
	if w.Sched == nil || w.ExpectedReplans == nil {
		return nil
	}
	sum := 0
	for _, s := range w.Sched.Sessions() {
		sum += s.Replans
	}
	if want := w.ExpectedReplans(); sum != want {
		return []Violation{{Check: "sched/replans", Host: -1,
			Detail: fmt.Sprintf("sessions report %d replans, harness observed %d failures", sum, want)}}
	}
	return nil
}
