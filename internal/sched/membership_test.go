package sched

import (
	"math/rand"
	"slices"
	"testing"

	"p2ppool/internal/eventsim"
)

func TestDynamicMembership(t *testing.T) {
	net, degrees := buildWorld(t, 400, 41)
	sc := NewScheduler(degrees, net.Latency, Config{})
	r := rand.New(rand.NewSource(42))
	perm := r.Perm(400)
	s := &Session{
		ID:       1,
		Priority: 2,
		Root:     perm[0],
		Members:  append([]int(nil), perm[1:12]...),
	}
	if err := sc.AddSession(s); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}

	// Grow the session.
	newcomer := perm[50]
	if err := sc.AddMember(1, newcomer); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}
	if !s.Tree.Contains(newcomer) {
		t.Fatal("newcomer missing from replanned tree")
	}
	if err := s.Tree.Validate(func(v int) int { return degrees[v] }); err != nil {
		t.Fatal(err)
	}

	// Shrink it again.
	if err := sc.RemoveMember(1, newcomer); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}
	// The departed host may remain only as a helper; as a member it is
	// gone. Check membership list and that all members are present.
	for _, m := range s.Members {
		if m == newcomer {
			t.Fatal("member list still contains the departed host")
		}
		if !s.Tree.Contains(m) {
			t.Fatalf("member %d missing after shrink", m)
		}
	}
	if err := sc.Registry().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMembershipErrors(t *testing.T) {
	net, degrees := buildWorld(t, 300, 43)
	sc := NewScheduler(degrees, net.Latency, Config{})
	r := rand.New(rand.NewSource(44))
	perm := r.Perm(300)
	s := &Session{ID: 1, Priority: 1, Root: perm[0], Members: append([]int(nil), perm[1:5]...)}
	if err := sc.AddSession(s); err != nil {
		t.Fatal(err)
	}
	if err := sc.AddMember(99, perm[10]); err == nil {
		t.Error("unknown session should fail")
	}
	if err := sc.AddMember(1, perm[0]); err == nil {
		t.Error("adding the root should fail")
	}
	if err := sc.AddMember(1, perm[1]); err == nil {
		t.Error("duplicate member should fail")
	}
	if err := sc.RemoveMember(99, perm[1]); err == nil {
		t.Error("unknown session should fail")
	}
	if err := sc.RemoveMember(1, perm[0]); err == nil {
		t.Error("removing the root should fail")
	}
	if err := sc.RemoveMember(1, perm[200]); err == nil {
		t.Error("removing a non-member should fail")
	}
}

// TestRejoin pins what Rejoin takes back: exactly the members a
// failure stripped, live or queued, with their source role, once the
// registry holds them alive again, and never a member that left
// through RemoveMember or is already back on the roster.
func TestRejoin(t *testing.T) {
	bounds := []int{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8}
	sc := NewScheduler(bounds, lineLat, Config{})
	s := &Session{ID: 1, Priority: 1, Root: 0, Members: []int{1, 2, 3, 4, 5}, Sources: []int{2, 3}}
	if err := sc.AddSession(s); err != nil {
		t.Fatal(err)
	}
	stabilize := func() {
		t.Helper()
		if _, err := sc.Stabilize(); err != nil {
			t.Fatal(err)
		}
	}
	stabilize()

	// A failed extra source comes back as a member, then a source.
	sc.NodeFailed(2)
	stabilize()
	if got := sc.Rejoin(2); got != nil || len(s.away) != 1 {
		t.Fatalf("Rejoin of a host still dead = %v, away %v; want nil, the entry kept", got, s.away)
	}
	sc.NodeRecovered(2)
	if got := sc.Rejoin(2); !slices.Equal(got, []SessionID{1}) {
		t.Fatalf("Rejoin(2) = %v, want [1]", got)
	}
	if !slices.Equal(s.Members, []int{1, 3, 4, 5, 2}) || !slices.Equal(s.Sources, []int{2, 3}) {
		t.Fatalf("after Rejoin: members %v sources %v; want [1 3 4 5 2], [2 3]", s.Members, s.Sources)
	}
	stabilize()
	if s.TreeFor(2) == nil {
		t.Fatal("rejoined source has no tree")
	}
	checkConfLedger(t, sc, s, bounds)
	if got := sc.Rejoin(2); got != nil {
		t.Fatalf("second Rejoin(2) = %v, want nil", got)
	}

	// A crash never declared stripped nothing; a leave is not a strip.
	if sc.NodeRecovered(4) || sc.Rejoin(4) != nil {
		t.Fatal("Rejoin took back a host whose crash was never declared")
	}
	if err := sc.RemoveMember(1, 1); err != nil {
		t.Fatal(err)
	}
	if got := sc.Rejoin(1); got != nil || slices.Contains(s.Members, 1) {
		t.Fatalf("Rejoin after RemoveMember = %v, members %v; want nil, 1 gone", got, s.Members)
	}

	// A member re-added through AddMember is not added twice.
	sc.NodeFailed(5)
	stabilize()
	sc.NodeRecovered(5)
	if err := sc.AddMember(1, 5); err != nil {
		t.Fatal(err)
	}
	if got := sc.Rejoin(5); got != nil || len(s.away) != 0 {
		t.Fatalf("Rejoin of a re-added member = %v, away %v; want nil, nothing", got, s.away)
	}
	if !slices.Equal(s.Members, []int{3, 4, 2, 5}) {
		t.Fatalf("members %v, want [3 4 2 5]", s.Members)
	}

	// A member stripped from a queued roster returns once it is live.
	sv := NewService(bounds, lineLat, ServiceConfig{})
	q := &Session{ID: 2, Priority: 1, Root: 6, Members: []int{7, 8}, Sources: []int{8}}
	if _, err := sv.Submit(0, q); err != nil {
		t.Fatal(err)
	}
	sv.NodeFailed(0, 8)
	sv.NodeRecovered(0, 8)
	if got := sv.Scheduler().Rejoin(8); got != nil {
		t.Fatalf("Rejoin into a queued session = %v, want nil", got)
	}
	if err := sv.Tick(0); err != nil {
		t.Fatal(err)
	}
	if got := sv.Scheduler().Rejoin(8); !slices.Equal(got, []SessionID{2}) {
		t.Fatalf("Rejoin(8) once live = %v, want [2]", got)
	}
	if !slices.Equal(q.Members, []int{7, 8}) || !slices.Equal(q.Sources, []int{8}) {
		t.Fatalf("after Rejoin: members %v sources %v; want [7 8], [8]", q.Members, q.Sources)
	}
	if err := sv.Tick(eventsim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if q.TreeFor(8) == nil {
		t.Fatal("rejoined queued source has no tree")
	}
}

// TestSourceOrder pins the one source order: an admitted session's
// Sources are ascending however its caller declared them, Trees walks
// the root's tree and then theirs in that order, and a source Rejoin
// takes back returns to its sorted place, not the end.
func TestSourceOrder(t *testing.T) {
	bounds := []int{8, 8, 8, 8, 8, 8, 8, 8}
	conference := func() *Session {
		return &Session{ID: 1, Priority: 1, Root: 0, Members: []int{5, 1, 2}, Sources: []int{5, 2}}
	}
	check := func(when string, s *Session) {
		t.Helper()
		if !slices.Equal(s.Sources, []int{2, 5}) {
			t.Fatalf("%s: sources %v, want [2 5]", when, s.Sources)
		}
		var order []int
		for _, st := range s.Trees() {
			if st.Tree == nil || st.Tree.Root != st.Source {
				t.Fatalf("%s: source %d has no tree of its own", when, st.Source)
			}
			order = append(order, st.Source)
		}
		if !slices.Equal(order, []int{0, 2, 5}) {
			t.Fatalf("%s: trees in source order %v, want [0 2 5]", when, order)
		}
	}

	sc := NewScheduler(bounds, lineLat, Config{})
	s := conference()
	if err := sc.AddSession(s); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.Sources, []int{2, 5}) {
		t.Fatalf("after AddSession: sources %v, want [2 5]", s.Sources)
	}
	stabilize := func() {
		t.Helper()
		if _, err := sc.Stabilize(); err != nil {
			t.Fatal(err)
		}
	}
	stabilize()
	check("planned", s)
	sc.NodeFailed(2)
	stabilize()
	sc.NodeRecovered(2)
	if got := sc.Rejoin(2); !slices.Equal(got, []SessionID{1}) {
		t.Fatalf("Rejoin(2) = %v, want [1]", got)
	}
	stabilize()
	check("rejoined", s)

	sv := NewService(bounds, lineLat, ServiceConfig{})
	q := conference()
	if _, err := sv.Submit(0, q); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(q.Sources, []int{2, 5}) {
		t.Fatalf("after Submit: sources %v, want [2 5]", q.Sources)
	}
	if err := sv.Tick(0); err != nil || sv.LiveSessions() != 1 {
		t.Fatalf("not admitted: err %v, %d live", err, sv.LiveSessions())
	}
	check("admitted", q)
}
