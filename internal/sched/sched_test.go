package sched

import (
	"math/rand"
	"slices"
	"testing"

	"p2ppool/internal/alm"
	"p2ppool/internal/topology"
)

func TestDegreeTableAccounting(t *testing.T) {
	r := NewRegistry([]int{4})
	if got := r.Table(0).available(2, nil); got != 4 {
		t.Errorf("available = %d, want 4", got)
	}
	if _, err := r.Reserve(0, 2, 2, 10, nil); err != nil {
		t.Fatal(err)
	}
	// Same priority cannot preempt: only 2 left for priority 2 and 3.
	if got := r.Table(0).available(2, nil); got != 2 {
		t.Errorf("available = %d, want 2", got)
	}
	// Priority 1 sees the slots of priority 2 as obtainable.
	if got := r.Table(0).available(1, nil); got != 4 {
		t.Errorf("priority-1 available = %d, want 4", got)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// CheckInvariants catches each fault of a table on its own, with
	// every other check passing.
	for _, c := range []struct {
		fault string
		spoil func(d *DegreeTable)
	}{
		{"an empty allocation", func(d *DegreeTable) { d.allocs[0].Slots = 0; d.account(2, -2) }},
		{"more slots held than the bound", func(d *DegreeTable) { d.bound = 1 }},
		{"a stale firm count beside a right used count", func(d *DegreeTable) { d.allocs[0].Priority = 3 }},
	} {
		r := NewRegistry([]int{4})
		if _, err := r.Reserve(0, 2, 2, 10, nil); err != nil {
			t.Fatal(err)
		}
		c.spoil(&r.tables[0])
		if err := r.CheckInvariants(); err == nil {
			t.Errorf("CheckInvariants passed %s", c.fault)
		}
	}
}

func TestReservePreemptsLowestFirst(t *testing.T) {
	r := NewRegistry([]int{4})
	if _, err := r.Reserve(0, 2, 3, 30, nil); err != nil { // low priority
		t.Fatal(err)
	}
	if _, err := r.Reserve(0, 2, 2, 20, nil); err != nil { // medium
		t.Fatal(err)
	}
	// Priority 1 wants 3 slots: must preempt the priority-3 holder
	// first (freeing 2), then the priority-2 holder (freeing 2 more).
	victims, err := r.Reserve(0, 3, 1, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 2 || victims[0] != 30 || victims[1] != 20 {
		t.Errorf("victims = %v, want [30 20]", victims)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if heldOn(r, 10) != 3 {
		t.Errorf("held = %d, want 3", heldOn(r, 10))
	}

	// A guard's veto comes before the order: with the priority-3 holder
	// vetoed, a priority-1 request displaces the allowed priority-2 one.
	g := NewRegistry([]int{2})
	if _, err := g.Reserve(0, 1, 3, 30, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Reserve(0, 1, 2, 20, nil); err != nil {
		t.Fatal(err)
	}
	victims, err = g.Reserve(0, 1, 1, 10, func(s SessionID) bool { return s != 30 })
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 1 || victims[0] != 20 {
		t.Errorf("guarded victims = %v, want [20]", victims)
	}
}

func TestReserveFailsWhenFirm(t *testing.T) {
	r := NewRegistry([]int{2})
	if _, err := r.Reserve(0, 2, 1, 10, nil); err != nil {
		t.Fatal(err)
	}
	// Another priority-1 session cannot preempt an equal priority.
	if _, err := r.Reserve(0, 1, 1, 11, nil); err == nil {
		t.Error("equal-priority preemption should fail")
	}
	// Member priority (0) can.
	victims, err := r.Reserve(0, 1, MemberPriority, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 1 || victims[0] != 10 {
		t.Errorf("victims = %v", victims)
	}
}

func TestReserveErrors(t *testing.T) {
	r := NewRegistry([]int{2})
	if _, err := r.Reserve(0, 0, 1, 1, nil); err == nil {
		t.Error("zero slots should fail")
	}
	if _, err := r.Reserve(0, 3, 1, 1, nil); err == nil {
		t.Error("over-bound request should fail")
	}
}

func TestReleaseAndMerge(t *testing.T) {
	r := NewRegistry([]int{6, 6})
	r.Reserve(0, 2, 1, 5, nil)
	r.Reserve(0, 1, 1, 5, nil) // merges with existing allocation
	r.Reserve(1, 3, 1, 5, nil)
	if got := heldOn(r, 5); got != 6 {
		t.Errorf("held = %d, want 6", got)
	}
	allocs := 0
	r.Table(0).EachAllocation(func(SessionID, int, int) bool { allocs++; return true })
	if allocs != 1 {
		t.Error("same-session same-priority allocations should merge")
	}
	r.Release(5, []int{0, 0, 1}) // each granting host, 0 twice
	if heldOn(r, 5) != 0 {
		t.Error("release should drop everything")
	}
}

// heldOn returns the slots sid holds on hosts, or on every host when
// none is named, read from the tables themselves.
func heldOn(r *Registry, sid SessionID, hosts ...int) int {
	if len(hosts) == 0 {
		for h := range r.tables {
			hosts = append(hosts, h)
		}
	}
	n := 0
	for _, h := range hosts {
		for _, a := range r.tables[h].allocs {
			if a.Session == sid {
				n += a.Slots
			}
		}
	}
	return n
}

// buildWorld creates the paper's experimental pool: transit-stub
// network, paper degree distribution, and non-overlapping sessions of
// the given size.
func buildWorld(t *testing.T, hosts int, seed int64) (*topology.Network, []int) {
	t.Helper()
	cfg := topology.DefaultConfig()
	cfg.Hosts = hosts
	cfg.Seed = seed
	net, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	return net, alm.PaperDegrees(hosts, r)
}

func makeSessions(n, size, hosts int, r *rand.Rand) []*Session {
	perm := r.Perm(hosts)
	out := make([]*Session, 0, n)
	for i := 0; i < n; i++ {
		nodes := perm[i*size : (i+1)*size]
		out = append(out, &Session{
			ID:       SessionID(i + 1),
			Priority: 1 + r.Intn(3),
			Root:     nodes[0],
			Members:  append([]int(nil), nodes[1:]...),
		})
	}
	return out
}

func TestSingleSessionScheduling(t *testing.T) {
	net, degrees := buildWorld(t, 400, 1)
	sc := NewScheduler(degrees, net.Latency, Config{})
	r := rand.New(rand.NewSource(2))
	s := makeSessions(1, 20, 400, r)[0]
	if err := sc.AddSession(s); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}
	if s.Tree == nil {
		t.Fatal("session not planned")
	}
	if err := s.Tree.Validate(func(v int) int { return degrees[v] }); err != nil {
		t.Fatal(err)
	}
	for _, m := range s.Members {
		if !s.Tree.Contains(m) {
			t.Fatalf("member %d missing from plan", m)
		}
	}
	if err := sc.Registry().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Config{} plans with the paper's helper degree: on a pool with
	// nothing else reserved, every helper candidate the plan scanned has
	// a bound of at least alm.DefaultMinDegree.
	if len(sc.candidates) == 0 {
		t.Fatal("the plan scanned no helper candidates")
	}
	for _, h := range sc.candidates {
		if degrees[h] < alm.DefaultMinDegree {
			t.Fatalf("helper candidate %d has bound %d, below alm.DefaultMinDegree %d", h, degrees[h], alm.DefaultMinDegree)
		}
	}
	// Reservations match the tree's degrees.
	for _, v := range s.Tree.Nodes() {
		if got := heldOn(sc.Registry(), s.ID); got == 0 {
			t.Fatal("no reservations recorded")
		}
		_ = v
	}
}

func TestAddSessionErrors(t *testing.T) {
	sc := NewScheduler([]int{4, 4, 4}, func(a, b int) float64 { return 1 }, Config{})
	s := &Session{ID: 1, Priority: 1, Root: 0, Members: []int{1}}
	if err := sc.AddSession(s); err != nil {
		t.Fatal(err)
	}
	if err := sc.AddSession(s); err == nil {
		t.Error("duplicate session should fail")
	}
	if err := sc.AddSession(&Session{ID: 2, Priority: 0, Root: 0}); err == nil {
		t.Error("priority 0 should be rejected")
	}
}

func TestMultiSessionCompetition(t *testing.T) {
	const hosts = 600
	net, degrees := buildWorld(t, hosts, 3)
	sc := NewScheduler(degrees, net.Latency, Config{})
	r := rand.New(rand.NewSource(4))
	sessions := makeSessions(20, 20, hosts, r)
	for _, s := range sessions {
		if err := sc.AddSession(s); err != nil {
			t.Fatal(err)
		}
	}
	plans, err := sc.Stabilize()
	if err != nil {
		t.Fatal(err)
	}
	if plans < len(sessions) {
		t.Errorf("plans = %d, want >= %d", plans, len(sessions))
	}
	if err := sc.Registry().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every session got a valid spanning plan despite competition.
	for _, s := range sessions {
		if s.Tree == nil {
			t.Fatalf("session %d unplanned", s.ID)
		}
		for _, m := range s.Members {
			if !s.Tree.Contains(m) {
				t.Fatalf("session %d member %d missing", s.ID, m)
			}
		}
		if !s.Tree.Contains(s.Root) {
			t.Fatalf("session %d root missing", s.ID)
		}
	}
	// No node is over-allocated across all trees: cross-check the
	// registry against actual tree degrees.
	usage := make([]int, hosts)
	for _, s := range sessions {
		for _, v := range s.Tree.Nodes() {
			usage[v] += s.Tree.Degree(v)
		}
	}
	for h := 0; h < hosts; h++ {
		if usage[h] > degrees[h] {
			t.Fatalf("host %d used %d slots, bound %d", h, usage[h], degrees[h])
		}
	}
}

func TestHigherPriorityGetsMoreHelpers(t *testing.T) {
	// Under heavy competition, priority-1 sessions should retain at
	// least as many helpers on average as priority-3 sessions — the
	// headline of Figure 10(b).
	const hosts = 1200
	net, degrees := buildWorld(t, hosts, 5)
	sc := NewScheduler(degrees, net.Latency, Config{})
	r := rand.New(rand.NewSource(6))
	sessions := makeSessions(50, 20, hosts, r)
	for _, s := range sessions {
		if err := sc.AddSession(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}
	helpers := map[int][]float64{}
	for _, s := range sessions {
		helpers[s.Priority] = append(helpers[s.Priority], float64(s.HelperCount()))
	}
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t / float64(len(xs))
	}
	if len(helpers[1]) == 0 || len(helpers[3]) == 0 {
		t.Skip("seed produced no sessions in a priority class")
	}
	if mean(helpers[1]) < mean(helpers[3])-0.5 {
		t.Errorf("priority 1 avg helpers %.2f < priority 3 avg %.2f",
			mean(helpers[1]), mean(helpers[3]))
	}
}

func TestRemoveSessionFreesResources(t *testing.T) {
	net, degrees := buildWorld(t, 400, 7)
	sc := NewScheduler(degrees, net.Latency, Config{})
	r := rand.New(rand.NewSource(8))
	sessions := makeSessions(2, 20, 400, r)
	for _, s := range sessions {
		sc.AddSession(s)
	}
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}
	id := sessions[0].ID
	if heldOn(sc.Registry(), id) == 0 {
		t.Fatal("expected reservations")
	}
	sc.RemoveSession(id)
	if heldOn(sc.Registry(), id) != 0 {
		t.Error("remove should free reservations")
	}
	if len(sc.Sessions()) != 1 {
		t.Error("session list should shrink")
	}
	// Periodic reschedule lets the survivor claim freed resources.
	sc.Reschedule()
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}
}

func TestPreemptionCascadeConverges(t *testing.T) {
	// Many sessions on a small pool: preemption cascades must still
	// reach a fixpoint within maxRounds.
	net, degrees := buildWorld(t, 300, 9)
	sc := NewScheduler(degrees, net.Latency, Config{})
	r := rand.New(rand.NewSource(10))
	sessions := makeSessions(15, 20, 300, r) // all 300 hosts are members
	for _, s := range sessions {
		if err := sc.AddSession(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Registry().CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A cascade one round deep per session, against the round cap (see
	// preemptChain). A chain of maxRounds sessions settles in the last
	// round; one more does not settle.
	chain := func(n int) (*Scheduler, int, error) {
		sc := NewScheduler(chainBounds(n), lineLat, Config{})
		preemptChain(t, sc, n)
		plans, err := sc.Stabilize()
		return sc, plans, err
	}
	if sc, plans, err := chain(maxRounds); err != nil || plans != maxRounds || len(sc.DirtySessions()) != 0 {
		t.Errorf("chain of %d: plans %d, err %v, dirty %v; want %d plans, settled", maxRounds, plans, err, sc.DirtySessions(), maxRounds)
	}
	sc, plans, err := chain(maxRounds + 1)
	if err == nil || plans != maxRounds || !slices.Equal(sc.DirtySessions(), []SessionID{maxRounds + 1}) {
		t.Errorf("chain of %d: plans %d, err %v, dirty %v; want %d plans and the last session dirty",
			maxRounds+1, plans, err, sc.DirtySessions(), maxRounds)
	}
}

// chainBounds is the pool of degree-1 hosts a preemptChain of n
// sessions runs on.
func chainBounds(n int) []int {
	bounds := make([]int, 2*n)
	for h := range bounds {
		bounds[h] = 1
	}
	return bounds
}

// preemptChain admits to sc, on chainBounds(n), a cascade one round
// deep per session: session i roots at host 2i-2 with member 2i-1,
// whose one slot session i+1 holds as a helper. Only session 1 is
// dirty; each replan takes its member's slot back at member priority
// and preempts the next session, which replans in the next round.
func preemptChain(t *testing.T, sc *Scheduler, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		s := &Session{ID: SessionID(i), Priority: 1, Root: 2*i - 2, Members: []int{2*i - 1}}
		if err := sc.AddSession(s); err != nil {
			t.Fatal(err)
		}
		if i > 1 {
			if _, err := sc.reg.Reserve(2*i-3, 1, 1, s.ID, nil); err != nil {
				t.Fatal(err)
			}
			s.held = append(s.held, 2*i-3)
		}
		s.dirty = i == 1
	}
}

// TestStabilizeFailureKeepsBatchDirty: a plan that fails inside
// Stabilize leaves its session, and every session of the batch not yet
// planned, marked dirty — the failed session has already released its
// slots, so a clean mark would read as settled with nothing reserved.
// Session 2's root has degree bound 0, so its plan fails after session
// 1's succeeds and before session 3's runs.
func TestStabilizeFailureKeepsBatchDirty(t *testing.T) {
	sc := NewScheduler([]int{4, 4, 4, 0, 4, 4}, lineLat, Config{})
	for _, s := range []*Session{
		{ID: 1, Priority: 1, Root: 0, Members: []int{1, 2}},
		{ID: 2, Priority: 1, Root: 3, Members: []int{1}},
		{ID: 3, Priority: 1, Root: 4, Members: []int{5}},
	} {
		if err := sc.AddSession(s); err != nil {
			t.Fatal(err)
		}
	}
	plans, err := sc.Stabilize()
	if err == nil || err.Error() != "session 2: alm: root degree bound 0 < 1" {
		t.Fatalf("Stabilize error = %v, want session 2's root bound", err)
	}
	if plans != 1 {
		t.Errorf("plans = %d, want 1 (session 1 only)", plans)
	}
	if got, want := sc.DirtySessions(), []SessionID{2, 3}; !slices.Equal(got, want) {
		t.Errorf("dirty after the failed Stabilize = %v, want %v", got, want)
	}
}

// TestStabilizePlansDisplacedSessionOnce: a session displaced in a
// Stabilize round before its own turn plans once, in that turn, and
// is not planned again in the next round. On a line, session 2
// (priority 3) plans alone through helper 3; then session 1 (priority
// 1) arrives needing the same helper, and Reschedule puts both in one
// round. Session 1 plans first and takes helper 3, displacing session
// 2, whose turn then comes and plans it through helper 7.
func TestStabilizePlansDisplacedSessionOnce(t *testing.T) {
	sc := NewScheduler([]int{1, 1, 1, 4, 1, 1, 1, 4}, lineLat, Config{})
	s2 := &Session{ID: 2, Priority: 3, Root: 4, Members: []int{5, 6}}
	if err := sc.AddSession(s2); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}
	if !s2.Tree.Contains(3) {
		t.Fatalf("session 2 alone planned %v; want it through helper 3", treeEdges(s2.Tree))
	}
	s1 := &Session{ID: 1, Priority: 1, Root: 0, Members: []int{1, 2}}
	if err := sc.AddSession(s1); err != nil {
		t.Fatal(err)
	}
	sc.Reschedule()
	before := sc.Totals()
	plans, err := sc.Stabilize()
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Totals().Preemptions - before.Preemptions; got != 1 {
		t.Fatalf("%d preemptions; the scenario displaces session 2 once", got)
	}
	if !s1.Tree.Contains(3) || !s2.Tree.Contains(7) {
		t.Fatalf("session 1 planned %v, session 2 %v; want helpers 3 and 7", treeEdges(s1.Tree), treeEdges(s2.Tree))
	}
	if plans != 2 {
		t.Errorf("Stabilize ran %d plans; want 2, one per session", plans)
	}
	if err := sc.Registry().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionHelperCount(t *testing.T) {
	s := &Session{ID: 1, Priority: 1, Root: 0, Members: []int{1, 2}}
	if s.HelperCount() != 0 {
		t.Error("unplanned session should report 0 helpers")
	}
	tr := alm.NewTree(0)
	tr.Attach(5, 0) // helper
	tr.Attach(1, 5)
	tr.Attach(2, 5)
	s.Tree = tr
	if s.HelperCount() != 1 {
		t.Errorf("helpers = %d, want 1", s.HelperCount())
	}
}
