package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"p2ppool/internal/alm"
)

// planeWorld is a small synthetic pool: n hosts at random points of a
// size x size plane (exposed so tests can move them), latency 5 ms plus
// distance, degree bounds from the paper's distribution.
type planeWorld struct {
	xs, ys []float64
	bounds []int
}

func newPlaneWorld(n int, size float64, r *rand.Rand) *planeWorld {
	w := &planeWorld{xs: make([]float64, n), ys: make([]float64, n), bounds: alm.PaperDegrees(n, r)}
	for h := range w.xs {
		w.xs[h], w.ys[h] = size*r.Float64(), size*r.Float64()
	}
	return w
}

func (w *planeWorld) lat(a, b int) float64 {
	if a == b {
		return 0
	}
	return 5 + math.Hypot(w.xs[a]-w.xs[b], w.ys[a]-w.ys[b])
}

func (w *planeWorld) scheduler() *Scheduler {
	return NewScheduler(w.bounds, w.lat, Config{ScoreLatency: w.lat, MetricScore: true})
}

// treeEdges flattens a tree to its sorted (child, parent) pairs.
func treeEdges(t *alm.Tree) [][2]int {
	var out [][2]int
	for _, v := range t.Nodes() {
		if p, ok := t.Parent(v); ok {
			out = append(out, [2]int{v, p})
		}
	}
	return out
}

// TestReserveRefusalReportsGuardedFirm: when a guard's veto is what
// makes a request not fit, the refusal must count the vetoed slots as
// firm — the figure it reports has to add up to the refusal.
func TestReserveRefusalReportsGuardedFirm(t *testing.T) {
	r := NewRegistry([]int{4})
	if _, err := r.Reserve(0, 3, 3, 7, nil); err != nil {
		t.Fatal(err)
	}
	_, err := r.Reserve(0, 2, 1, 8, func(SessionID) bool { return false })
	if err == nil || !strings.Contains(err.Error(), "bound 4, firm 3") {
		t.Fatalf("refusal = %v, want one reporting bound 4, firm 3", err)
	}
	if _, err := r.Reserve(0, 2, 1, 8, nil); err != nil {
		t.Fatalf("unguarded, the same request fits by preemption: %v", err)
	}
}

// TestPlanConsultsGuardAcrossWholePool pins which victims one planning
// attempt shows the guard: every session holding a slot this priority
// could preempt, on any live host outside the roster — wherever in the
// pool, however far from the tree. Service classifies a failed attempt as
// damping-deferred when any of those consultations was a veto, so the
// set may not silently shrink to the tree's vicinity. A roster the pool
// cannot start shows the guard nobody: no preemption could start it.
func TestPlanConsultsGuardAcrossWholePool(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const n = 400
	w := newPlaneWorld(n, 1000, r) // ten helper radii across
	sc := w.scheduler()
	perm := r.Perm(n)
	for i := 0; i < 30; i++ {
		hosts := perm[i*5 : i*5+5]
		if err := sc.AddSession(&Session{ID: SessionID(i + 1), Priority: 1 + i%3, Root: hosts[0], Members: hosts[1:]}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}
	sc.NodeFailed(perm[160])
	// A lowest-class holder on a host too small to ever be a helper
	// candidate: the guard hears about it all the same.
	small := slices.IndexFunc(perm[210:], func(h int) bool { return w.bounds[h] < sc.cfg.HelperMinDegree }) + 210
	if _, err := sc.reg.Reserve(perm[small], 1, NumClasses, 99, nil); err != nil {
		t.Fatal(err)
	}

	// attempt plans the probe roster once at priority pri under a guard
	// that vetoes everything, checks the guard heard about exactly the
	// sessions the brute force finds (none when doomed), and returns the
	// plan's error.
	attempt := func(pri int, what string, doomed bool) error {
		t.Helper()
		s := &Session{ID: 100, Priority: pri, Root: perm[200], Members: perm[201:205]}
		roster := s.memberSet()
		want := map[SessionID]bool{}
		far := false
		for h := 0; h < n; h++ {
			if roster[h] || sc.reg.Dead(h) {
				continue
			}
			sc.reg.Table(h).EachAllocation(func(sid SessionID, priority, _ int) bool {
				if priority > pri {
					want[sid] = true
					far = far || w.lat(h, s.Root) > 4*helperRadius
				}
				return true
			})
		}
		if pri < 3 && !far {
			t.Fatalf("%s priority %d: no preemptable holder far from the roster; the scenario pins nothing", what, pri)
		}
		if doomed {
			clear(want)
		}
		got := map[SessionID]bool{}
		sc.sessions[s.ID] = s
		sc.guard = func(v SessionID) bool { got[v] = true; return false }
		err := sc.planOne(s)
		sc.guard = nil
		sc.RemoveSession(s.ID)
		if len(got) != len(want) {
			t.Errorf("%s priority %d: guard consulted on %d sessions, brute force finds %d", what, pri, len(got), len(want))
		}
		for v := range want {
			if !got[v] {
				t.Errorf("%s priority %d: guard never consulted on session %d", what, pri, v)
			}
		}
		if err := sc.reg.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return err
	}
	for _, pri := range []int{1, 2, 3} {
		if err := attempt(pri, "plannable roster", false); err != nil {
			t.Fatalf("priority %d: %v", pri, err)
		}
	}
	// A roster the pool cannot start: a member's own host is full at
	// member priority. The attempt fails with the planner's own error
	// before the pool pass, and the guard hears about nobody, though the
	// pool holds as many preemptable holders as for the roster that plans.
	full := perm[203]
	if _, err := sc.reg.Reserve(full, sc.reg.Table(full).Bound(), MemberPriority, 98, nil); err != nil {
		t.Fatal(err)
	}
	for _, pri := range []int{1, 2, 3} {
		err := attempt(pri, "doomed roster", true)
		if want := fmt.Sprintf("alm: member %d degree bound 0 < 1", full); err == nil || err.Error() != want {
			t.Errorf("doomed roster priority %d: error %v, want %q", pri, err, want)
		}
	}
}

// TestPlanAsksGuardOncePerCandidate pins that one judge screens a
// helper candidate: the planner's filter, which reads the host's
// availability — and so asks the guard about each preemptable holder on
// it — once per tree. Hosts 0-3 are a tight roster; host 4, far past the
// helper radius, has room to spare and holds one class-3 slot of session
// 50. A single-tree priority-1 plan under an allowing guard asks about
// session 50 exactly once and never recruits host 4.
func TestPlanAsksGuardOncePerCandidate(t *testing.T) {
	at := []float64{0, 1, 2, 3, 5000}
	lat := func(a, b int) float64 { return math.Abs(at[a] - at[b]) }
	sc := NewScheduler([]int{4, 4, 4, 4, 8}, lat, Config{})
	if _, err := sc.reg.Reserve(4, 1, 3, 50, nil); err != nil {
		t.Fatal(err)
	}
	s := &Session{ID: 1, Priority: 1, Root: 0, Members: []int{1, 2, 3}}
	if err := sc.AddSession(s); err != nil {
		t.Fatal(err)
	}
	asks := 0
	sc.guard = func(v SessionID) bool {
		if v == 50 {
			asks++
		}
		return true
	}
	if err := sc.planOne(s); err != nil {
		t.Fatal(err)
	}
	if asks != 1 {
		t.Errorf("guard asked about session 50 %d times in one plan, want 1", asks)
	}
	if s.Tree.Contains(4) {
		t.Errorf("host 4, %v ms from the roster, entered the tree %v", at[4], treeEdges(s.Tree))
	}
}

// TestPlanSeesMutatedCoordinates: whatever ScoreLatency reads belongs
// to the caller, who may change it between plans (a planner fed from
// SOMO snapshots does). Nothing derived from it may outlive a plan:
// after a mutation a scheduler must plan exactly as a fresh one built on
// the new values. The degree bounds, by contrast, are the registry's
// own copy, fixed when it is built.
func TestPlanSeesMutatedCoordinates(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	const n = 300
	w := newPlaneWorld(n, 200, r)
	sc := w.scheduler()
	roster := r.Perm(n)[:6]
	session := func() *Session {
		return &Session{ID: 1, Priority: 2, Root: roster[0], Members: append([]int(nil), roster[1:]...)}
	}
	plan := func(sc *Scheduler) *Session {
		s := session()
		if err := sc.AddSession(s); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Stabilize(); err != nil {
			t.Fatal(err)
		}
		sc.RemoveSession(s.ID)
		return s
	}
	first := plan(sc)
	if first.HelperCount() == 0 {
		t.Fatal("first plan recruited no helper; the scenario pins nothing")
	}
	// Scatter the pool.
	for h := range w.xs {
		if !slices.Contains(roster, h) {
			w.xs[h], w.ys[h] = 200*r.Float64(), 200*r.Float64()
		}
	}
	second := plan(sc)
	fresh := plan(NewScheduler(w.bounds, w.lat, sc.cfg))
	if !slices.Equal(treeEdges(second.Tree), treeEdges(fresh.Tree)) {
		t.Errorf("after mutation the scheduler plans %v, a fresh one %v", treeEdges(second.Tree), treeEdges(fresh.Tree))
	}
	if slices.Equal(treeEdges(first.Tree), treeEdges(second.Tree)) {
		t.Error("the mutation did not change the plan; the scenario pins nothing")
	}
}
