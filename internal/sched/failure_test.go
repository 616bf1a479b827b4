package sched

import (
	"math/rand"
	"slices"
	"testing"

	"p2ppool/internal/alm"
)

func TestRegistryDeadHost(t *testing.T) {
	r := NewRegistry([]int{4, 4})
	if _, err := r.Reserve(0, 2, 1, 10, nil); err != nil {
		t.Fatal(err)
	}
	r.SetDead(0)
	if !r.Dead(0) || r.Dead(1) {
		t.Error("dead flags wrong")
	}
	if got := r.Table(0).available(1, nil); got != 0 {
		t.Errorf("dead host available = %d, want 0", got)
	}
	if heldOn(r, 10) != 0 {
		t.Error("dead host kept allocations")
	}
	if _, err := r.Reserve(0, 1, 1, 11, nil); err == nil {
		t.Error("reserve on dead host should fail")
	}
	r.SetDead(0) // idempotent
	r.Revive(0)
	if got := r.Table(0).available(1, nil); got != 4 {
		t.Errorf("revived host available = %d, want 4", got)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// planAndCheck stabilizes and asserts registry sanity, including what
// a release relies on: every allocation belongs to a live session that
// lists its host in held.
func planAndCheck(t *testing.T, sc *Scheduler) {
	t.Helper()
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Registry().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for h := range sc.reg.tables {
		for _, a := range sc.reg.tables[h].allocs {
			if s := sc.sessions[a.Session]; s == nil || !slices.Contains(s.held, h) {
				t.Fatalf("host %d holds %d slots for session %d, which does not list it", h, a.Slots, a.Session)
			}
		}
	}
}

// checkSession asserts the session's tree covers root + members and
// avoids every dead host.
func checkSession(t *testing.T, sc *Scheduler, s *Session, dead ...int) {
	t.Helper()
	if s.Tree == nil {
		t.Fatal("session has no tree")
	}
	if err := s.Tree.Validate(nil); err != nil {
		t.Fatalf("tree invalid: %v", err)
	}
	for _, m := range s.Members {
		if !s.Tree.Contains(m) {
			t.Fatalf("member %d missing from tree", m)
		}
	}
	for _, d := range dead {
		if s.Tree.Contains(d) {
			t.Fatalf("dead host %d still in tree", d)
		}
		for _, v := range s.Tree.Nodes() {
			if dd := s.Tree.Degree(v); dd > 0 && sc.Registry().Dead(v) {
				t.Fatalf("tree uses dead host %d", v)
			}
		}
	}
}

func TestNodeFailedHelperRepairsInPlace(t *testing.T) {
	net, degrees := buildWorld(t, 200, 11)
	sc := NewScheduler(degrees, net.Latency, Config{})
	r := rand.New(rand.NewSource(12))
	s := makeSessions(1, 20, 200, r)[0]
	s.Priority = 1
	if err := sc.AddSession(s); err != nil {
		t.Fatal(err)
	}
	planAndCheck(t, sc)

	members := s.memberSet()
	helper := -1
	for _, v := range s.Tree.Nodes() {
		if !members[v] {
			helper = v
			break
		}
	}
	if helper == -1 {
		t.Fatal("plan recruited no helpers; nothing to kill")
	}
	affected := sc.NodeFailed(helper)
	if len(affected) != 1 || affected[0] != s.ID {
		t.Fatalf("affected = %v, want [%d]", affected, s.ID)
	}
	if s.Replans != 1 {
		t.Errorf("Replans = %d, want 1", s.Replans)
	}
	// The crash repairs the tree in place: no fallback replan is left.
	if got := sc.Totals().Repairs; got != 1 || sc.Dirty(s.ID) || s.Tree.Contains(helper) {
		t.Fatalf("after the crash: Repairs %d, dirty %v, tree holds helper %d: %v; want an in-place repair",
			got, sc.Dirty(s.ID), helper, s.Tree.Contains(helper))
	}
	planAndCheck(t, sc) // flush any fallback replan
	checkSession(t, sc, s, helper)
	if held := heldOn(sc.Registry(), s.ID); held == 0 {
		t.Error("no reservations after repair")
	}
}

func TestNodeFailedMemberIsStripped(t *testing.T) {
	net, degrees := buildWorld(t, 200, 13)
	sc := NewScheduler(degrees, net.Latency, Config{})
	r := rand.New(rand.NewSource(14))
	s := makeSessions(1, 16, 200, r)[0]
	if err := sc.AddSession(s); err != nil {
		t.Fatal(err)
	}
	planAndCheck(t, sc)

	victim := s.Members[len(s.Members)/2]
	before := len(s.Members)
	sc.NodeFailed(victim)
	if len(s.Members) != before-1 {
		t.Fatalf("member not stripped: %d members", len(s.Members))
	}
	for _, m := range s.Members {
		if m == victim {
			t.Fatal("dead member still listed")
		}
	}
	planAndCheck(t, sc)
	checkSession(t, sc, s, victim)
	if s.Replans < 1 {
		t.Errorf("Replans = %d, want >= 1", s.Replans)
	}
}

func TestNodeFailedRootRemovesSession(t *testing.T) {
	net, degrees := buildWorld(t, 100, 15)
	sc := NewScheduler(degrees, net.Latency, Config{})
	r := rand.New(rand.NewSource(16))
	ss := makeSessions(2, 10, 100, r)
	for _, s := range ss {
		if err := sc.AddSession(s); err != nil {
			t.Fatal(err)
		}
	}
	planAndCheck(t, sc)

	sc.NodeFailed(ss[0].Root)
	if len(sc.Sessions()) != 1 || sc.Sessions()[0].ID != ss[1].ID {
		t.Fatalf("sessions after root death = %v", sc.Sessions())
	}
	if held := heldOn(sc.Registry(), ss[0].ID); held != 0 {
		t.Errorf("dead session still holds %d slots", held)
	}
	planAndCheck(t, sc)
	if err := sc.Registry().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeRecoveredRejoinsMarket(t *testing.T) {
	net, degrees := buildWorld(t, 100, 17)
	sc := NewScheduler(degrees, net.Latency, Config{})
	r := rand.New(rand.NewSource(18))
	s := makeSessions(1, 10, 100, r)[0]
	if err := sc.AddSession(s); err != nil {
		t.Fatal(err)
	}
	planAndCheck(t, sc)

	members := s.memberSet()
	dead := -1
	for h := 0; h < 100; h++ {
		if !members[h] {
			dead = h
			break
		}
	}
	sc.NodeFailed(dead)
	if got := sc.Registry().Table(dead).available(3, nil); got != 0 {
		t.Fatalf("dead host offers %d slots", got)
	}
	sc.NodeRecovered(dead)
	if got := sc.Registry().Table(dead).available(3, nil); got != degrees[dead] {
		t.Fatalf("recovered host offers %d slots, want %d", got, degrees[dead])
	}
	sc.Reschedule()
	planAndCheck(t, sc)
	checkSession(t, sc, s)
}

// TestNodeFailedIdempotent pins the double-detection contract: a crash
// is reported once by heartbeat loss and again by partition detection,
// and the second NodeFailed for the same host must be a no-op. The
// dangerous configuration is a session whose in-place repair failed
// (orphan batch larger than the surviving tree's spare degree): its
// stale tree still names the dead host, so a non-idempotent NodeFailed
// counts a second replan for the same failure. Fails against the
// pre-guard code with Replans == 2.
func TestNodeFailedIdempotent(t *testing.T) {
	bounds := []int{2, 4, 1, 1, 1}
	lat := func(a, b int) float64 { return 1 }
	sc := NewScheduler(bounds, lat, Config{})

	// Hand-built plan: helper host 1 fans out to all three members, so
	// killing it orphans more subtrees than the survivors can adopt
	// (root can take 2, members are leaf-bound at 1).
	s := &Session{ID: 1, Priority: 2, Root: 0, Members: []int{2, 3, 4}}
	tree := alm.NewTree(0)
	for _, e := range [][2]int{{1, 0}, {2, 1}, {3, 1}, {4, 1}} {
		if err := tree.Attach(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	s.Tree = tree
	sc.sessions[s.ID] = s
	if err := sc.reserveTree(s, tree); err != nil {
		t.Fatal(err)
	}

	first := sc.NodeFailed(1)
	if len(first) != 1 || first[0] != s.ID {
		t.Fatalf("first NodeFailed affected %v, want [%d]", first, s.ID)
	}
	if s.Replans != 1 {
		t.Fatalf("after first failure Replans = %d, want 1", s.Replans)
	}
	if !s.dirty {
		t.Fatal("failed repair must leave the session dirty for a full replan")
	}
	if got := heldOn(sc.Registry(), s.ID); got != 0 {
		t.Fatalf("failed repair left %d slots reserved", got)
	}

	// Second detection path fires for the same host.
	second := sc.NodeFailed(1)
	if len(second) != 0 {
		t.Fatalf("second NodeFailed affected %v, want none", second)
	}
	if s.Replans != 1 {
		t.Fatalf("double detection double-counted: Replans = %d, want 1", s.Replans)
	}
	if got := heldOn(sc.Registry(), s.ID); got != 0 {
		t.Fatalf("second NodeFailed changed reservations: %d slots", got)
	}

	// After a genuine recovery the next failure counts again.
	sc.NodeRecovered(1)
	third := sc.NodeFailed(1)
	if len(third) != 1 || s.Replans != 2 {
		t.Fatalf("post-recovery failure: affected %v, Replans = %d; want [1], 2", third, s.Replans)
	}
}

// TestNodeRecoveredIdempotent pins the mirror-image contract of the
// NodeFailed double-fire fix: recovery detection also fires from
// several independent paths (heartbeat resumption, partition heal), and
// the duplicate NodeRecovered must be a counted-once no-op. Without the
// guard, every stale recovery report inflates the recovery totals and
// re-triggers any "capacity returned" control-plane hooks. A recovery
// report for a host that never failed must also change nothing.
func TestNodeRecoveredIdempotent(t *testing.T) {
	net, degrees := buildWorld(t, 100, 19)
	sc := NewScheduler(degrees, net.Latency, Config{})

	if sc.NodeRecovered(42) {
		t.Fatal("recovery of a never-failed host reported a transition")
	}
	if got := sc.Totals().NodeRecoveries; got != 0 {
		t.Fatalf("spurious recovery counted: NodeRecoveries = %d, want 0", got)
	}

	sc.NodeFailed(42)
	if !sc.NodeRecovered(42) {
		t.Fatal("first recovery must report a transition")
	}
	// Second detection path (e.g. partition heal) fires for the same
	// recovery.
	if sc.NodeRecovered(42) {
		t.Fatal("second NodeRecovered for the same recovery must be a no-op")
	}
	if got := sc.Totals().NodeRecoveries; got != 1 {
		t.Fatalf("double detection double-counted: NodeRecoveries = %d, want 1", got)
	}
	if got := sc.Registry().Table(42).available(3, nil); got != degrees[42] {
		t.Fatalf("recovered host offers %d slots, want %d", got, degrees[42])
	}

	// A genuine second failure/recovery cycle counts again.
	sc.NodeFailed(42)
	if !sc.NodeRecovered(42) || sc.Totals().NodeRecoveries != 2 {
		t.Fatalf("post-failure recovery not counted: NodeRecoveries = %d, want 2", sc.Totals().NodeRecoveries)
	}
}
