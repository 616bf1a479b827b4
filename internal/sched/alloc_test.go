//go:build !race

package sched

import "testing"

// TestPlanAttemptAllocs pins what one guarded planning attempt through
// planSession allocates: on a roster the pool cannot start (member 2's
// host has bound 0) and on one that plans. The service's damping is
// installed on its scheduler once, so an attempt builds no guard or hook
// of its own, and a failed one leaves nothing to release. A class-3
// allocation on host 4 and an empty token bucket make every attempt
// consult the guard and hear a veto. The race detector's
// instrumentation allocates on the planner's path (a planned attempt
// reads 24 under -race), so the file builds only without it.
func TestPlanAttemptAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		members []int
		want    float64
	}{
		{"doomed", []int{1, 2}, 6},
		{"planned", []int{1, 3}, 18},
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
			if planned := after.Plans > before.Plans; planned != (tc.name == "planned") || !sv.vetoed {
				t.Errorf("plans %d -> %d, failures %d -> %d, vetoed %v: the attempt is not the one pinned",
					before.Plans, after.Plans, before.PlanFailures, after.PlanFailures, sv.vetoed)
			}
		})
	}
}
