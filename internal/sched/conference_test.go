package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// confBounds raises the paper's degree distribution to conference
// provisioning: a member of an M-way conference carries M-1 parent
// links (one per fellow source's tree) on top of its own fan-out, so
// per-host bounds below M cannot host a conference at all.
func confBounds(degrees []int, m int) []int {
	out := make([]int, len(degrees))
	for i, d := range degrees {
		out[i] = d + m
	}
	return out
}

// confSession builds an M-member conference (every member a source)
// over a random disjoint roster.
func confSession(id SessionID, pri, size int, perm []int) *Session {
	nodes := perm[:size]
	return &Session{
		ID:       id,
		Priority: pri,
		Root:     nodes[0],
		Members:  append([]int(nil), nodes[1:]...),
		Sources:  append([]int(nil), nodes[1:]...),
	}
}

// checkConfLedger asserts the shared-budget contract: for every host,
// the slots the registry holds for the session equal the host's degree
// summed across all of the session's source trees, and never exceed
// the physical bound.
func checkConfLedger(t *testing.T, sc *Scheduler, s *Session, bounds []int) {
	t.Helper()
	load := make(map[int]int)
	for _, st := range s.Trees() {
		if st.Tree == nil {
			t.Fatalf("source %d has no tree", st.Source)
		}
		if st.Tree.Root != st.Source {
			t.Fatalf("source %d tree rooted at %d", st.Source, st.Tree.Root)
		}
		for _, m := range s.roster() {
			if m != st.Source && !st.Tree.Contains(m) {
				t.Fatalf("member %d missing from source %d's tree", m, st.Source)
			}
		}
		for _, v := range st.Tree.Nodes() {
			load[v] += st.Tree.Degree(v)
		}
	}
	for v, d := range load {
		if d > bounds[v] {
			t.Fatalf("host %d loaded to %d across the conference's trees, bound %d", v, d, bounds[v])
		}
		if held := heldOn(sc.Registry(), s.ID, v); held != d {
			t.Fatalf("host %d: session holds %d slots, summed tree degree %d", v, held, d)
		}
	}
	if err := sc.Registry().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConferenceSharedBudgetPlan(t *testing.T) {
	net, degrees := buildWorld(t, 400, 7)
	degrees = confBounds(degrees, 6)
	// Roster 3's root tree recruits no helper, so the next source's tree
	// plans from the whole candidate pool, and recruits one there.
	for _, tc := range []struct {
		rosterSeed int64
		laterOnly  bool
	}{{8, false}, {3, true}} {
		sc := NewScheduler(degrees, net.Latency, Config{HelperMinDegree: 2})
		r := rand.New(rand.NewSource(tc.rosterSeed))
		s := confSession(1, 1, 6, r.Perm(400))
		if err := sc.AddSession(s); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Stabilize(); err != nil {
			t.Fatal(err)
		}
		if got := len(s.Trees()); got != 6 {
			t.Fatalf("roster %d: planned %d source trees, want 6", tc.rosterSeed, got)
		}
		checkConfLedger(t, sc, s, degrees)

		// Helpers are recruited once per session: every helper in a later
		// source tree should come from the session's shared recruited set,
		// so the distinct-helper count stays near the per-tree helper count
		// rather than scaling with the number of sources.
		perTree := 0
		var helpers []int // per tree, in EachTree order
		members := s.memberSet()
		for _, st := range s.Trees() {
			n := 0
			for _, v := range st.Tree.Nodes() {
				if !members[v] {
					n++
				}
			}
			perTree = max(perTree, n)
			helpers = append(helpers, n)
		}
		distinct := s.HelperCount()
		if perTree > 0 && distinct > 3*perTree {
			t.Fatalf("roster %d: HelperCount = %d vs max per-tree %d: helpers not shared across source trees", tc.rosterSeed, distinct, perTree)
		}
		if tc.laterOnly && (helpers[0] != 0 || helpers[1] == 0) {
			t.Fatalf("roster %d: helpers per source tree %v; want none in the root's and some in the next", tc.rosterSeed, helpers)
		}
	}
}

// TestConferenceSourceRejoins: an extra source that fails loses its
// tree and its slots; once it recovers, Rejoin makes it a source again
// and the next plan gives it a tree on the shared budget.
func TestConferenceSourceRejoins(t *testing.T) {
	net, degrees := buildWorld(t, 400, 9)
	degrees = confBounds(degrees, 6)
	sc := NewScheduler(degrees, net.Latency, Config{HelperMinDegree: 2})
	r := rand.New(rand.NewSource(10))
	perm := r.Perm(400)
	s := &Session{ID: 1, Priority: 2, Root: perm[0], Members: append([]int(nil), perm[1:6]...), Sources: []int{perm[2]}}
	if err := sc.AddSession(s); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}
	back := perm[2]
	if s.TreeFor(back) == nil {
		t.Fatal("extra source has no tree after Stabilize")
	}
	checkConfLedger(t, sc, s, degrees)

	sc.NodeFailed(back)
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(s.Sources, back) || s.TreeFor(back) != nil {
		t.Fatal("failed source still has a source role or tree")
	}
	checkConfLedger(t, sc, s, degrees)

	sc.NodeRecovered(back)
	if got := sc.Rejoin(back); len(got) != 1 || got[0] != s.ID {
		t.Fatalf("Rejoin(%d) = %v, want [%d]", back, got, s.ID)
	}
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(s.Sources, back) || s.TreeFor(back) == nil {
		t.Fatal("rejoined source has no source role or tree")
	}
	checkConfLedger(t, sc, s, degrees)
}

func TestConferenceSourceFailureRepairs(t *testing.T) {
	net, degrees := buildWorld(t, 400, 11)
	degrees = confBounds(degrees, 6)
	sc := NewScheduler(degrees, net.Latency, Config{HelperMinDegree: 2})
	r := rand.New(rand.NewSource(12))
	s := confSession(1, 1, 6, r.Perm(400))
	victim := s.Sources[2]
	if err := sc.AddSession(s); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}

	affected := sc.NodeFailed(victim)
	if len(affected) != 1 || affected[0] != s.ID {
		t.Fatalf("affected = %v, want [%d]", affected, s.ID)
	}
	// The other five trees repair in place under one release, each
	// re-reserved in turn.
	if got := sc.Totals().Repairs; got != 1 || sc.Dirty(s.ID) || len(s.Trees()) != 5 {
		t.Fatalf("after the crash: Repairs %d, dirty %v, %d trees; want 1 in-place repair of 5 trees",
			got, sc.Dirty(s.ID), len(s.Trees()))
	}
	checkConfLedger(t, sc, s, degrees)
	// Double-fired failure detection must be a no-op: a second replan
	// for the same failure would double-release the shared ledger.
	replans := s.Replans
	if again := sc.NodeFailed(victim); again != nil {
		t.Fatalf("second NodeFailed fire affected %v, want nothing", again)
	}
	if s.Replans != replans {
		t.Fatalf("double-fired NodeFailed recounted a replan (%d -> %d)", replans, s.Replans)
	}
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(s.Sources, victim) || s.TreeFor(victim) != nil {
		t.Fatal("dead source still has a source role or tree")
	}
	if got := len(s.Trees()); got != 5 {
		t.Fatalf("%d source trees after a source died, want 5", got)
	}
	for _, st := range s.Trees() {
		if st.Tree.Contains(victim) {
			t.Fatalf("dead host %d still in source %d's tree", victim, st.Source)
		}
	}
	checkConfLedger(t, sc, s, degrees)

	// Root death still ends the whole conference.
	sc.NodeFailed(s.Root)
	if sc.Session(s.ID) != nil {
		t.Fatal("conference survived its root's death")
	}
	if err := sc.Registry().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNodeFailedUnplannedSourceFallsBack: a source back through Rejoin
// has no tree until the next plan, so a crash in another of the
// session's trees cannot repair in place. The session falls back to a
// full replan holding nothing, and that plan covers every source.
func TestNodeFailedUnplannedSourceFallsBack(t *testing.T) {
	net, degrees := buildWorld(t, 400, 11)
	degrees = confBounds(degrees, 6)
	sc := NewScheduler(degrees, net.Latency, Config{HelperMinDegree: 2})
	r := rand.New(rand.NewSource(12))
	s := confSession(1, 1, 6, r.Perm(400))
	back := s.Sources[2]
	if err := sc.AddSession(s); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}
	sc.NodeFailed(back)
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}
	sc.NodeRecovered(back)
	sc.Rejoin(back)
	if !slices.Contains(s.Sources, back) || s.TreeFor(back) != nil {
		t.Fatal("rejoined source is not back without a tree")
	}

	members := s.memberSet()
	helper := -1
	for _, v := range s.Tree.Nodes() {
		if !members[v] {
			helper = v
			break
		}
	}
	if helper == -1 {
		t.Fatal("root's tree recruited no helper; nothing to crash")
	}
	repairs := sc.Totals().Repairs
	if affected := sc.NodeFailed(helper); len(affected) != 1 || affected[0] != s.ID {
		t.Fatalf("affected = %v, want [%d]", affected, s.ID)
	}
	if n := heldOn(sc.Registry(), s.ID); n != 0 || !sc.Dirty(s.ID) || sc.Totals().Repairs != repairs {
		t.Fatalf("after the crash: %d slots held, dirty %v, Repairs %d -> %d; want a fallback holding nothing",
			n, sc.Dirty(s.ID), repairs, sc.Totals().Repairs)
	}
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Trees()); got != 6 {
		t.Fatalf("%d source trees after the replan, want 6", got)
	}
	checkConfLedger(t, sc, s, degrees)
}

// TestConferenceFailedPlanHoldsNothing: a conference whose second
// source tree finds no feasible parent after its first tree was
// reserved fails Stabilize holding no slot, as a failed attempt under
// Tick does. Stabilize used to leave the first tree's six slots held by
// a session with no plan. On a line, root 4's tree runs through helper
// 3 and spends its whole bound. Source 0's tree then has one spare slot
// at its own host and one at member 2's, and no helper with two to
// spare (hosts 1 and 5 have bound 1), so member 4 finds no parent.
func TestConferenceFailedPlanHoldsNothing(t *testing.T) {
	xs := []float64{4.6, 40.0, 4.3, 65.7, 77.4, 7.0}
	lat := func(a, b int) float64 { return 1 + math.Abs(xs[a]-xs[b]) }
	sc := NewScheduler([]int{2, 1, 2, 2, 3, 1}, lat, Config{HelperMinDegree: 2})
	s := &Session{ID: 1, Priority: 1, Root: 4, Members: []int{0, 2}, Sources: []int{0}}
	if err := sc.AddSession(s); err != nil {
		t.Fatal(err)
	}
	_, err := sc.Stabilize()
	if want := "session 1: alm: no feasible parent for member 4 (degree bounds too tight)"; err == nil || err.Error() != want {
		t.Fatalf("Stabilize error = %v, want %q", err, want)
	}
	if n := heldOn(sc.Registry(), s.ID); n != 0 || len(s.held) != 0 {
		t.Errorf("failed conference holds %d slots, lists %v", n, s.held)
	}
	if !sc.Dirty(s.ID) {
		t.Error("failed conference marked clean")
	}
	if err := sc.Registry().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
