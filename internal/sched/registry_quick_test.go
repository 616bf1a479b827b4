package sched

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRegistryFuzz drives a registry through random reserve/release
// sequences and checks the invariants after every operation:
// allocations never exceed bounds, preemption only ever removes
// strictly-lower-priority holders, and Release is complete.
func TestRegistryFuzz(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nHosts := 1 + r.Intn(8)
		bounds := make([]int, nHosts)
		for i := range bounds {
			bounds[i] = 1 + r.Intn(8)
		}
		reg := NewRegistry(bounds)
		granted := map[SessionID][]int{} // hosts each session was granted on, as Session.held
		for op := 0; op < 200; op++ {
			switch r.Intn(3) {
			case 0, 1: // reserve
				sid := SessionID(1 + r.Intn(10))
				h := r.Intn(nHosts)
				p := r.Intn(4) // includes MemberPriority 0
				slots := 1 + r.Intn(3)
				victims, err := reg.Reserve(h, slots, p, sid, nil)
				if err == nil {
					granted[sid] = append(granted[sid], h)
					// Victims must have held strictly lower priority
					// and must not include the requester at the same
					// host... (requester's own allocations are merged,
					// never preempted).
					for _, v := range victims {
						if v == sid {
							// Self-preemption only possible across
							// different priorities of the same session,
							// which the merge path avoids; treat any
							// occurrence as a failure.
							pFound := false
							reg.Table(h).EachAllocation(func(s SessionID, pri, _ int) bool {
								pFound = s == sid && pri == p
								return !pFound
							})
							if !pFound {
								return false
							}
						}
					}
				}
			case 2: // release
				sid := SessionID(1 + r.Intn(10))
				reg.Release(sid, granted[sid])
				delete(granted, sid)
				if heldOn(reg, sid) != 0 {
					return false
				}
			}
			if err := reg.CheckInvariants(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAvailableForConsistent: a table's availability must equal what
// Reserve can actually grant (no more, no less) — probed by attempting
// exactly that many slots and then one more.
func TestAvailableForConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		reg := NewRegistry([]int{2 + r.Intn(6)})
		// Random pre-population.
		for i := 0; i < 5; i++ {
			reg.Reserve(0, 1+r.Intn(2), 1+r.Intn(3), SessionID(i+1), nil)
		}
		p := r.Intn(4)
		avail := reg.Table(0).available(p, nil)
		if avail > 0 {
			if _, err := reg.Reserve(0, avail, p, 99, nil); err != nil {
				t.Logf("reserve of advertised availability failed: %v", err)
				return false
			}
		}
		if _, err := reg.Reserve(0, 1, p, 98, nil); err == nil {
			t.Log("reserve beyond advertised availability succeeded")
			return false
		}
		return reg.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSchedulerSessionChurn interleaves arrivals, departures and
// periodic rescheduling — the dynamics the paper describes (sessions
// start and end at random times, periodic replan to pick up freed
// resources).
func TestSchedulerSessionChurn(t *testing.T) {
	net, degrees := buildWorld(t, 600, 11)
	sc := NewScheduler(degrees, net.Latency, Config{})
	r := rand.New(rand.NewSource(12))
	perm := r.Perm(600)
	nextID := 1
	active := map[SessionID]bool{}
	slot := 0 // which member block to use next
	for step := 0; step < 30; step++ {
		switch {
		case len(active) < 3 || r.Float64() < 0.5:
			if slot >= 600/20 {
				break
			}
			nodes := perm[slot*20 : (slot+1)*20]
			slot++
			id := SessionID(nextID)
			nextID++
			if err := sc.AddSession(&Session{
				ID:       id,
				Priority: 1 + r.Intn(3),
				Root:     nodes[0],
				Members:  append([]int(nil), nodes[1:]...),
			}); err != nil {
				t.Fatal(err)
			}
			active[id] = true
		default:
			// Depart a random active session.
			for id := range active {
				sc.RemoveSession(id)
				delete(active, id)
				break
			}
			sc.Reschedule() // periodic replan picks up freed slots
		}
		if _, err := sc.Stabilize(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := sc.Registry().CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, s := range sc.Sessions() {
			if s.Tree == nil {
				t.Fatalf("step %d: session %d unplanned", step, s.ID)
			}
		}
	}
	// Drain everything: registry must end empty.
	for id := range active {
		sc.RemoveSession(id)
	}
	for h := 0; h < 600; h++ {
		if used := sc.Registry().Table(h).Used(); used != 0 {
			t.Fatalf("host %d still has %d slots allocated after all sessions left", h, used)
		}
	}
}
