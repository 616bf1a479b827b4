//go:build !race

package sched

import "testing"

// TestPlanAttemptAllocs pins what one guarded planning attempt through
// planSession allocates: on a roster the pool cannot start (member 2's
// host has bound 0) and on one that plans. The service's damping is
// installed on its scheduler once, so an attempt builds no guard or hook
// of its own, and a failed one leaves nothing to release. A class-3
// allocation on host 4 and an empty token bucket make the attempt that
// plans consult the guard and hear a veto; the doomed one fails before
// any guard is asked, so it hears none. The candidate pass, the
// planner's roster check, the recruited helpers and the node lists
// reserved through reuse scheduler or planner buffers and build no map,
// so what a planned attempt allocates is its trees, their slices and
// the closures the planner reads degrees through. The race detector's
// instrumentation allocates on the planner's path, so the file builds
// only without it.
func TestPlanAttemptAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		members []int
		want    float64
	}{
		{"doomed", []int{1, 2}, 4},
		{"planned", []int{1, 3}, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sv := NewService([]int{4, 4, 0, 4, 4}, lineLat, ServiceConfig{})
			if _, err := sv.sc.reg.Reserve(4, 1, 3, 9, nil); err != nil {
				t.Fatal(err)
			}
			s := &Session{ID: 1, Priority: 1, Root: 0, Members: tc.members}
			if _, err := sv.Submit(0, s); err != nil {
				t.Fatal(err)
			}
			if err := sv.Tick(0); err != nil || sv.LiveSessions() != 1 {
				t.Fatalf("not admitted: err %v, %d live", err, sv.LiveSessions())
			}
			sv.tokens = 0
			shedBudget := maxShedPerTick
			attempt := func() {
				s.ctl.attempts, s.ctl.defers = 0, 0 // never exhausted, never shed
				sv.planSession(s, &shedBudget)
			}
			before := sv.Stats()
			if allocs := testing.AllocsPerRun(100, attempt); allocs > tc.want {
				t.Errorf("guarded %s attempt allocates %.2f/op, want <= %v", tc.name, allocs, tc.want)
			}
			after := sv.Stats()
			if planned := after.Plans > before.Plans; planned != (tc.name == "planned") || sv.vetoed != planned {
				t.Errorf("plans %d -> %d, failures %d -> %d, vetoed %v: the attempt is not the one pinned",
					before.Plans, after.Plans, before.PlanFailures, after.PlanFailures, sv.vetoed)
			}
		})
	}
}

// TestNodeFailedAllocs pins what a crash that touches no session costs:
// NodeFailed asks each live session whether the dead host is in one of
// its trees by walking them in place (Session.EachTree), so the count
// does not grow with the sessions. Host 0 has bound 0, so no plan
// recruits it as a helper, and no roster names it.
func TestNodeFailedAllocs(t *testing.T) {
	var got []float64
	for _, n := range []int{16, 64} {
		bounds := make([]int, 1+2*n)
		for h := 1; h < len(bounds); h++ {
			bounds[h] = 4
		}
		sc := NewScheduler(bounds, lineLat, Config{})
		for i := 0; i < n; i++ {
			s := &Session{ID: SessionID(i + 1), Priority: 1, Root: 1 + 2*i, Members: []int{2 + 2*i}}
			if err := sc.AddSession(s); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sc.Stabilize(); err != nil {
			t.Fatal(err)
		}
		crash := func() {
			if affected := sc.NodeFailed(0); affected != nil {
				t.Fatalf("a crash no session names affected %v", affected)
			}
			sc.NodeRecovered(0)
		}
		got = append(got, testing.AllocsPerRun(100, crash))
	}
	if got[0] != got[1] || got[1] > 2 {
		t.Errorf("NodeFailed on an unnamed host allocates %v/op at 16 and 64 sessions, want the same and <= 2", got)
	}
}
