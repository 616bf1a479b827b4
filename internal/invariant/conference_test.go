package invariant

import (
	"math/rand"
	"testing"

	"p2ppool/internal/sched"
)

// TestConferenceSharedBudgetConservation drives a multi-source
// conference through a NodeFailed / Rejoin / replan cycle — including
// double-fired failure detection, the double-free path — and after
// every step sums the reserved slots across all of the conference's
// (session, source) trees, asserting the sum never exceeds any host's
// physical bound and always matches the ledger.
func TestConferenceSharedBudgetConservation(t *testing.T) {
	const hosts = 300
	const m = 6
	r := rand.New(rand.NewSource(21))
	lat := func(a, b int) float64 {
		d := a - b
		if d < 0 {
			d = -d
		}
		return 5 + float64(d%97)
	}
	bounds := make([]int, hosts)
	for i := range bounds {
		// Paper-style fan-out plus conference parent-link provisioning.
		bounds[i] = 2 + r.Intn(6) + m
	}
	sc := sched.NewScheduler(bounds, lat, sched.Config{HelperMinDegree: 2})

	perm := r.Perm(hosts)
	roster := perm[:m]
	s := &sched.Session{
		ID:       1,
		Priority: 1,
		Root:     roster[0],
		Members:  append([]int(nil), roster[1:]...),
		Sources:  append([]int(nil), roster[1:4]...),
	}
	if err := sc.AddSession(s); err != nil {
		t.Fatal(err)
	}
	// A competing single-source session sharing the pool, so the
	// conference's accounting is checked against live contention.
	rival := &sched.Session{ID: 2, Priority: 2, Root: perm[m], Members: append([]int(nil), perm[m+1:m+12]...)}
	if err := sc.AddSession(rival); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	world := &World{Sched: sc, Bounds: bounds}
	audit := func(step string) {
		t.Helper()
		for _, v := range reg.Sweep(world, Continuous) {
			t.Errorf("after %s: %s", step, v)
		}
		// Explicit conservation at the conference grain: per host, the
		// slots reserved for the session equal its degree summed over
		// every (session, source) tree and fit the physical bound.
		if sc.Session(s.ID) == nil {
			return
		}
		dirty := make(map[sched.SessionID]bool)
		for _, id := range sc.DirtySessions() {
			dirty[id] = true
		}
		if dirty[s.ID] {
			return
		}
		load := make(map[int]int)
		for _, st := range s.Trees() {
			if st.Tree == nil {
				t.Fatalf("after %s: source %d unplanned in settled session", step, st.Source)
			}
			for _, v := range st.Tree.Nodes() {
				load[v] += st.Tree.Degree(v)
			}
		}
		for v := 0; v < hosts; v++ {
			held := heldBy(sc, v, s.ID)
			if held != load[v] {
				t.Fatalf("after %s: host %d holds %d slots for the conference, summed tree degree %d", step, v, held, load[v])
			}
			if held > bounds[v] {
				t.Fatalf("after %s: host %d over-allocated: %d > bound %d", step, v, held, bounds[v])
			}
		}
	}

	stabilize := func(step string) {
		t.Helper()
		if _, err := sc.Stabilize(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		audit(step)
	}

	stabilize("initial plan")

	// An extra source fails and comes back: Rejoin makes it a member
	// and a source again, and the replan gives it a tree.
	back := roster[1]
	sc.NodeFailed(back)
	audit("source failed")
	stabilize("source-failure replan")
	sc.NodeRecovered(back)
	if got := sc.Rejoin(back); len(got) != 1 || got[0] != s.ID {
		t.Fatalf("Rejoin(%d) = %v, want [%d]", back, got, s.ID)
	}
	audit("Rejoin")
	stabilize("rejoin replan")
	if s.TreeFor(back) == nil {
		t.Fatalf("rejoined source %d has no tree", back)
	}

	// Kill an extra source — and double-fire the detection: the second
	// fire must not double-free the shared ledger (pre-PR-5 bug class).
	victim := roster[2]
	sc.NodeFailed(victim)
	audit("NodeFailed")
	sc.NodeFailed(victim)
	audit("NodeFailed double-fire")
	stabilize("post-failure replan")

	// Kill a plain tree node (likely a helper) and a member.
	var helper = -1
	members := map[int]bool{s.Root: true}
	for _, mm := range s.Members {
		members[mm] = true
	}
	for _, st := range s.Trees() {
		for _, v := range st.Tree.Nodes() {
			if !members[v] {
				helper = v
				break
			}
		}
		if helper >= 0 {
			break
		}
	}
	if helper >= 0 {
		sc.NodeFailed(helper)
		audit("helper failed")
		stabilize("post-helper replan")
	}

	// Full periodic replan cycle with everything dirty.
	sc.Reschedule()
	stabilize("Reschedule")

	// End the session: every slot must return to the pool.
	sc.RemoveSession(s.ID)
	for v := 0; v < hosts; v++ {
		if held := heldBy(sc, v, s.ID); held > 0 {
			t.Fatalf("host %d still holds %d slots for the ended conference", v, held)
		}
	}
	if err := sc.Registry().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// heldBy returns the slots session sid holds on host v.
func heldBy(sc *sched.Scheduler, v int, sid sched.SessionID) int {
	held := 0
	sc.Registry().Table(v).EachAllocation(func(s sched.SessionID, _, slots int) bool {
		if s == sid {
			held += slots
		}
		return true
	})
	return held
}
