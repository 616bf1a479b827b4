package invariant

import (
	"cmp"
	"fmt"
	"slices"

	"p2ppool/internal/alm"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/sched"
)

// sweepScratch is the session checks' working memory. It lives on the
// World and is reused from sweep to sweep, so the checks read the
// scheduler and the registry where they live and a clean sweep
// allocates nothing.
type sweepScratch struct {
	sessions []*sched.Session // live sessions, by ID
	hosts    []int            // one tree's offending hosts
	loads    []hostLoad       // one session's (host, degree) pairs
	// listers[listedAt[h]:listedAt[h+1]] are the sessions whose roots
	// list host h, once per listing.
	listedAt []int
	listers  []sched.SessionID
	unlisted []sessionHost // allocations on hosts their roots do not list
}

type hostLoad struct{ host, load int }

type sessionHost struct {
	sid  sched.SessionID
	host int
}

func byHost(a, b hostLoad) int { return cmp.Compare(a.host, b.host) }

// sessions returns the live sessions sorted by ID, in scratch.
func (w *World) sessions() []*sched.Session {
	ss := w.scr.sessions[:0]
	w.Sched.EachSession(func(s *sched.Session) bool { ss = append(ss, s); return true })
	slices.SortFunc(ss, func(a, b *sched.Session) int { return cmp.Compare(a.ID, b.ID) })
	w.scr.sessions = ss
	return ss
}

// inNodeOrder sorts hosts gathered in t.EachNode order into the order
// t.Nodes lists them: the root first, then ascending.
func inNodeOrder(t *alm.Tree, hosts []int) {
	if len(hosts) > 0 && hosts[0] == t.Root {
		hosts = hosts[1:]
	}
	slices.Sort(hosts)
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
	var out []Violation
	for _, s := range w.sessions() {
		dirty := w.Sched.Dirty(s.ID)
		s.EachTree(func(src int, t *alm.Tree) bool {
			if t == nil {
				if !dirty {
					out = append(out, Violation{Check: "alm/tree-valid", Host: src,
						Detail: fmt.Sprintf("session %d source %d has no plan and is not pending one", s.ID, src)})
				}
				return true
			}
			if err := t.Validate(nil); err != nil {
				out = append(out, Violation{Check: "alm/tree-valid", Host: src,
					Detail: fmt.Sprintf("session %d source %d: %v", s.ID, src, err)})
				return true
			}
			if t.Root != src {
				out = append(out, Violation{Check: "alm/tree-valid", Host: src,
					Detail: fmt.Sprintf("session %d tree rooted at %d, want source %d", s.ID, t.Root, src)})
			}
			if dirty {
				return true
			}
			for i := -1; i < len(s.Members); i++ {
				m := s.Root
				if i >= 0 {
					m = s.Members[i]
				}
				if m != src && !t.Contains(m) {
					out = append(out, Violation{Check: "alm/tree-valid", Host: m,
						Detail: fmt.Sprintf("session %d member not covered by source %d's tree", s.ID, src)})
				}
			}
			return true
		})
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
	for _, s := range w.sessions() {
		loads := w.scr.loads[:0] // host, degree in one tree
		s.EachTree(func(src int, t *alm.Tree) bool {
			if t == nil {
				return true
			}
			unknown := w.scr.hosts[:0]
			t.EachNode(func(v int) bool {
				if v < 0 || v >= len(w.Bounds) {
					unknown = append(unknown, v)
				} else {
					loads = append(loads, hostLoad{v, t.Degree(v)})
				}
				return true
			})
			w.scr.hosts = unknown
			inNodeOrder(t, unknown)
			for _, v := range unknown {
				out = append(out, Violation{Check: "alm/degree-bound", Host: v,
					Detail: fmt.Sprintf("session %d source %d tree uses unknown host", s.ID, src)})
			}
			return true
		})
		w.scr.loads = loads
		slices.SortFunc(loads, byHost)
		for i := 0; i < len(loads); {
			v, load := loads[i].host, 0
			for ; i < len(loads) && loads[i].host == v; i++ {
				load += loads[i].load
			}
			if load > w.Bounds[v] {
				out = append(out, Violation{Check: "alm/degree-bound", Host: v,
					Detail: fmt.Sprintf("session %d loads host to degree %d across its trees, bound %d", s.ID, load, w.Bounds[v])})
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
	reg := w.Sched.Registry()
	overdue := func(v int) (eventsim.Time, bool) {
		age, ok := w.downFor(v)
		return age, ok && w.RepairLag > 0 && age > w.RepairLag
	}
	var out []Violation
	for _, s := range w.sessions() {
		if w.Sched.Dirty(s.ID) {
			continue
		}
		s.EachTree(func(src int, t *alm.Tree) bool {
			if t == nil {
				return true
			}
			bad := w.scr.hosts[:0]
			t.EachNode(func(v int) bool {
				if _, late := overdue(v); late || reg.Dead(v) {
					bad = append(bad, v)
				}
				return true
			})
			w.scr.hosts = bad
			inNodeOrder(t, bad)
			for _, v := range bad {
				if reg.Dead(v) {
					out = append(out, Violation{Check: "alm/dead-in-tree", Host: v,
						Detail: fmt.Sprintf("settled session %d source %d tree uses registry-dead host", s.ID, src)})
					continue
				}
				age, _ := overdue(v)
				out = append(out, Violation{Check: "alm/dead-in-tree", Host: v,
					Detail: fmt.Sprintf("settled session %d source %d tree uses host down for %.0fms (repair lag %.0fms)",
						s.ID, src, float64(age), float64(w.RepairLag))})
			}
			return true
		})
	}
	return out
}

// checkLedger: helper-lease accounting, checked from both ends. Every
// allocation belongs to a known session, on a host that session's root
// lists as granting (Session.Held) — else its release would strand the
// slots. And for every settled session the slots it holds on a host
// equal that host's degree summed across all of the session's source
// trees, and it holds nothing on hosts outside them.
func checkLedger(w *World) []Violation {
	if w.Sched == nil {
		return nil
	}
	reg := w.Sched.Registry()
	sessions := w.sessions()
	w.indexListed(sessions, reg.NumHosts())
	var out []Violation
	unlisted := w.scr.unlisted[:0]
	for h := 0; h < reg.NumHosts(); h++ {
		listers := w.scr.listers[w.scr.listedAt[h]:w.scr.listedAt[h+1]]
		reg.Table(h).EachAllocation(func(sid sched.SessionID, _, slots int) bool {
			if w.Sched.Session(sid) == nil {
				out = append(out, Violation{Check: "sched/ledger", Host: h,
					Detail: fmt.Sprintf("allocation of %d slots for unknown session %d", slots, sid)})
				return true
			}
			if !slices.Contains(listers, sid) {
				out = append(out, Violation{Check: "sched/ledger", Host: h,
					Detail: fmt.Sprintf("session %d holds slots on a host its root does not list", sid)})
				unlisted = append(unlisted, sessionHost{sid, h})
			}
			return true
		})
	}
	w.scr.unlisted = unlisted
	slices.SortFunc(unlisted, func(a, b sessionHost) int { return cmp.Or(cmp.Compare(a.sid, b.sid), cmp.Compare(a.host, b.host)) })
	for _, s := range sessions {
		if w.Sched.Dirty(s.ID) {
			continue
		}
		// The hosts either side names: the trees' (with their degree),
		// the root's list and any host holding slots it does not list.
		// Any host outside them trivially agrees (0 == 0), so the pool
		// is never scanned per session.
		loads := w.scr.loads[:0]
		planned := false
		s.EachTree(func(_ int, t *alm.Tree) bool {
			if t == nil {
				return true
			}
			planned = true
			t.EachNode(func(v int) bool {
				if d := t.Degree(v); d > 0 {
					loads = append(loads, hostLoad{v, d})
				}
				return true
			})
			return true
		})
		if !planned {
			w.scr.loads = loads
			continue
		}
		s.Held(func(h int) bool { loads = append(loads, hostLoad{h, 0}); return true })
		for len(unlisted) > 0 && unlisted[0].sid < s.ID {
			unlisted = unlisted[1:]
		}
		for ; len(unlisted) > 0 && unlisted[0].sid == s.ID; unlisted = unlisted[1:] {
			loads = append(loads, hostLoad{unlisted[0].host, 0})
		}
		w.scr.loads = loads
		slices.SortFunc(loads, byHost)
		for i := 0; i < len(loads); {
			h, want := loads[i].host, 0
			for ; i < len(loads) && loads[i].host == h; i++ {
				want += loads[i].load
			}
			if got := slotsOn(reg, h, s.ID); got != want {
				out = append(out, Violation{Check: "sched/ledger", Host: h,
					Detail: fmt.Sprintf("session %d holds %d slots, tree degree is %d", s.ID, got, want)})
			}
		}
	}
	return out
}

// indexListed buckets the sessions' root lists by host, a counting sort
// into listedAt and listers.
func (w *World) indexListed(sessions []*sched.Session, hosts int) {
	at := append(w.scr.listedAt[:0], make([]int, hosts+1)...)
	listed := func(h int) bool { return h >= 0 && h < hosts }
	for _, s := range sessions {
		s.Held(func(h int) bool {
			if listed(h) {
				at[h+1]++
			}
			return true
		})
	}
	for h := 1; h <= hosts; h++ {
		at[h] += at[h-1]
	}
	listers := slices.Grow(w.scr.listers[:0], at[hosts])[:at[hosts]]
	for _, s := range sessions {
		s.Held(func(h int) bool {
			if listed(h) {
				listers[at[h]] = s.ID
				at[h]++
			}
			return true
		})
	}
	copy(at[1:], at[:hosts])
	at[0] = 0
	w.scr.listedAt, w.scr.listers = at, listers
}

// slotsOn returns the slots session sid holds on host h (none on a host
// outside the registry).
func slotsOn(reg *sched.Registry, h int, sid sched.SessionID) int {
	if h < 0 || h >= reg.NumHosts() {
		return 0
	}
	got := 0
	reg.Table(h).EachAllocation(func(s sched.SessionID, _, slots int) bool {
		if s == sid {
			got += slots
		}
		return true
	})
	return got
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
	w.Sched.EachSession(func(s *sched.Session) bool { sum += s.Replans; return true })
	if want := w.ExpectedReplans(); sum != want {
		return []Violation{{Check: "sched/replans", Host: -1,
			Detail: fmt.Sprintf("sessions report %d replans, harness observed %d failures", sum, want)}}
	}
	return nil
}
