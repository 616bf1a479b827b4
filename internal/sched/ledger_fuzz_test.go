package sched

import (
	"slices"
	"sort"
	"testing"
)

// flatLedger is the naive model the registry is checked against: one
// unindexed list of holdings, every question answered by scanning it.
type flatLedger struct {
	bounds []int
	dead   []bool
	held   []flatEntry
}

type flatEntry struct {
	host, pri, slots int
	sid              SessionID
}

func (l *flatLedger) available(h, p int, guard PreemptGuard) int {
	if l.dead[h] {
		return 0
	}
	firm := 0
	for _, e := range l.held {
		if e.host == h && (e.pri <= p || (guard != nil && !guard(e.sid))) {
			firm += e.slots
		}
	}
	return max(l.bounds[h]-firm, 0)
}

func (l *flatLedger) drop(keep func(flatEntry) bool) {
	kept := l.held[:0]
	for _, e := range l.held {
		if keep(e) {
			kept = append(kept, e)
		}
	}
	l.held = kept
}

func (l *flatLedger) reserve(h, slots, p int, sid SessionID, guard PreemptGuard) (victims []SessionID, ok bool) {
	if slots <= 0 || l.dead[h] || l.available(h, p, guard) < slots {
		return nil, false
	}
	free := l.bounds[h]
	var prey []flatEntry
	for _, e := range l.held {
		if e.host != h {
			continue
		}
		free -= e.slots
		if e.pri > p && (guard == nil || guard(e.sid)) {
			prey = append(prey, e)
		}
	}
	sort.Slice(prey, func(i, j int) bool {
		if prey[i].pri != prey[j].pri {
			return prey[i].pri > prey[j].pri
		}
		return prey[i].sid < prey[j].sid
	})
	for _, e := range prey {
		if free >= slots {
			break
		}
		free += e.slots
		victims = append(victims, e.sid)
		l.drop(func(x flatEntry) bool { return x != e })
	}
	for i := range l.held {
		if e := &l.held[i]; e.host == h && e.sid == sid && e.pri == p {
			e.slots += slots
			return victims, true
		}
	}
	l.held = append(l.held, flatEntry{host: h, pri: p, slots: slots, sid: sid})
	return victims, true
}

// FuzzRegistryLedger drives the registry and the flat model through the
// same sequence of plain and guarded Reserve, Release, SetDead and
// Revive — three bytes per step: operation, host and session, priority
// and slots — and after every step compares victims, refusals, the
// sessions a guarded reservation asked its guard about, each session's
// holdings, each table's Used, Bound and dead mark, and its
// availability for every host at every priority (one below and one
// above the class range included, with and without a guard), checks
// that a dead host holds nothing, and has CheckInvariants recompute the
// cached counters. A release names the hosts the script was granted on
// for that session since its last release, as Session.held does, so
// the list carries hosts where the session was since preempted or
// killed, and repeats; the model drops the session everywhere. The
// registry keeps its open-host index at a threshold of 0..5 slots picked
// by the script's step count, and after every step each host outside the
// set a priority-p helper search walks (every p from 1 to one past the
// class range) must offer p fewer slots than that, with and without a
// guard, and show the guard nobody; within the class range the set holds
// exactly the live hosts that offer that many or would ask a guard. The
// seed corpus runs as a plain test.
func FuzzRegistryLedger(f *testing.F) {
	const reserve, guarded, release, kill, revive = 0, 1, 2, 3, 4
	step := func(op, h int, sid SessionID, p, slots int) []byte {
		return []byte{byte(op), byte(h<<4 | int(sid)), byte((p+1)<<4 | slots)}
	}
	script := func(steps ...[]byte) []byte { return slices.Concat(steps...) }
	// Merge, preempt lowest class first, release holders and victims.
	f.Add(script(step(reserve, 3, 1, 3, 2), step(reserve, 3, 2, 2, 2), step(reserve, 3, 1, 3, 1),
		step(reserve, 3, 3, 1, 3), step(release, 0, 2, 0, 0), step(reserve, 4, 3, 0, 3), step(release, 0, 3, 0, 0)))
	// Guarded reservations over a mix of classes, and priorities outside
	// the class range on both sides.
	f.Add(script(step(reserve, 4, 1, 3, 2), step(reserve, 4, 2, 3, 2), step(reserve, 4, 3, 2, 1), step(reserve, 4, 4, 4, 2),
		step(guarded, 4, 5, 1, 3), step(guarded, 4, 6, 2, 3), step(reserve, 4, 7, -1, 1), step(guarded, 4, 8, 4, 1),
		step(release, 0, 4, 0, 0), step(release, 0, 7, 0, 0)))
	// A host dies holding slots, refuses while dead, comes back empty.
	f.Add(script(step(reserve, 2, 1, 2, 2), step(reserve, 1, 1, 0, 1), step(kill, 2, 0, 0, 0), step(reserve, 2, 2, 1, 1),
		step(kill, 2, 0, 0, 0), step(revive, 2, 0, 0, 0), step(reserve, 2, 2, 1, 3), step(release, 0, 1, 0, 0), step(revive, 2, 0, 0, 0)))
	// A release whose list starts with a host the session was preempted
	// on, and names another twice.
	f.Add(script(step(reserve, 0, 1, 3, 1), step(reserve, 0, 2, 1, 1), step(reserve, 4, 1, 3, 2), step(reserve, 4, 1, 3, 1),
		step(release, 0, 1, 0, 0), step(reserve, 4, 3, 3, 8)))
	// A guarded reservation that displaces a lower-rank holder beside a
	// same-rank one: the guard hears only about the lower.
	f.Add(script(step(reserve, 3, 1, 3, 2), step(reserve, 3, 2, 1, 2), step(guarded, 3, 4, 1, 3)))
	f.Fuzz(func(t *testing.T, script []byte) {
		bounds := []int{1, 2, 3, 5, 8}
		openMin := len(script) / 3 % 6
		reg := newRegistry(bounds, openMin)
		model := &flatLedger{bounds: bounds, dead: make([]bool, len(bounds))}
		var granted [16][]int // per session, as Session.held
		// Every step re-checks the whole ledger against a model that
		// scans, so a script is cut at 128 steps: longer ones cost the
		// fuzzer seconds an input and reach nothing shorter ones do not.
		for step := 0; step+2 < min(len(script), 3*128); step += 3 {
			op, a, b := script[step]%5, script[step+1], script[step+2]
			h, sid := int(a>>4)%len(bounds), SessionID(a&0x0f)
			p, slots := int(b>>4)%(NumClasses+3)-1, int(b&0x0f)%4 // p in -1..NumClasses+1
			// The guard vetoes a victim set that changes from step to step.
			guard := PreemptGuard(func(v SessionID) bool { return (int(v)+step)%3 != 0 })
			switch op {
			case reserve, guarded:
				var g, mg PreemptGuard
				var asked, modelAsked uint16 // the sessions each guard heard about
				if op == guarded {
					g = func(v SessionID) bool { asked |= 1 << v; return guard(v) }
					mg = func(v SessionID) bool { modelAsked |= 1 << v; return guard(v) }
				}
				got, err := reg.Reserve(h, slots, p, sid, g)
				want, ok := model.reserve(h, slots, p, sid, mg)
				if (err == nil) != ok || !slices.Equal(got, want) || asked != modelAsked {
					t.Fatalf("step %d: reserve(h=%d slots=%d p=%d sid=%d): victims %v err %v guard asked %016b, model %v ok %v asked %016b",
						step, h, slots, p, sid, got, err, asked, want, ok, modelAsked)
				}
				if ok {
					granted[sid] = append(granted[sid], h)
				}
			case release:
				reg.Release(sid, granted[sid])
				granted[sid] = granted[sid][:0]
				model.drop(func(e flatEntry) bool { return e.sid != sid })
			case kill:
				reg.SetDead(h)
				model.dead[h] = true
				model.drop(func(e flatEntry) bool { return e.host != h })
			case revive:
				reg.Revive(h)
				model.dead[h] = false
			}
			if err := reg.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for h := range bounds {
				used := 0
				for _, e := range model.held {
					if e.host == h {
						used += e.slots
					}
				}
				tab := reg.Table(h)
				if tab.Used() != used || tab.Bound() != bounds[h] || reg.Dead(h) != model.dead[h] {
					t.Fatalf("step %d: host %d table used %d bound %d dead %v, model says %d, %d, %v",
						step, h, tab.Used(), tab.Bound(), reg.Dead(h), used, bounds[h], model.dead[h])
				}
				if reg.Dead(h) && len(tab.Allocations()) > 0 {
					t.Fatalf("step %d: dead host %d holds %v", step, h, tab.Allocations())
				}
				for p := -1; p <= NumClasses+1; p++ {
					for _, g := range []PreemptGuard{nil, guard} {
						if got, want := tab.available(p, g), model.available(h, p, g); got != want {
							t.Fatalf("step %d: host %d available(p=%d, guarded=%v) = %d, model says %d",
								step, h, p, g != nil, got, want)
						}
					}
					if p < 1 {
						continue
					}
					asked := false
					offer := model.available(h, p, func(SessionID) bool { asked = true; return false })
					open := !model.dead[h] && (offer >= openMin || asked)
					if in := reg.openSet(p)[h>>6]&(1<<(h&63)) != 0; (!in && open) || (p <= NumClasses && in != open) {
						t.Fatalf("step %d: host %d in priority %d's open set %v, offers %d slots (threshold %d), guard asked %v",
							step, h, p, in, offer, openMin, asked)
					}
				}
			}
			for s := SessionID(0); s < 16; s++ {
				want := 0
				for _, e := range model.held {
					if e.sid == s {
						want += e.slots
					}
				}
				if got := heldOn(reg, s); got != want {
					t.Fatalf("step %d: session %d holds %d slots, model says %d", step, s, got, want)
				}
			}
		}
	})
}
