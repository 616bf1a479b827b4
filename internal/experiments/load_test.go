package experiments

import (
	"math"
	"reflect"
	"testing"

	"p2ppool/internal/eventsim"
	"p2ppool/internal/obs"
)

// smallLoad is a fast configuration that still exercises every moving
// part: all four cells, churn, the flash crowd, and invariant sweeps.
func smallLoad(seed int64) LoadOptions {
	return LoadOptions{
		Hosts: 400,
		// ~2x the default rate for this pool size: the 60s window is
		// too short for arrivals at the production ratio to fill a
		// 400-host pool, and the admission/shedding assertions need
		// contention, not an idle scheduler.
		ArrivalRate: 2,
		Window:      60 * eventsim.Second,
		Seed:        seed,
	}
}

// TestLoadInvariantsClean: a full small run across all cells must keep
// every continuous invariant (slot conservation, ledger, tree validity)
// at zero violations while actually doing work.
func TestLoadInvariantsClean(t *testing.T) {
	res, err := Load(smallLoad(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4 cells", len(res.Rows))
	}
	if n := res.ViolationCount(); n != 0 {
		t.Errorf("invariant violations = %d, first: %s", n, res.Rows[0].FirstViolation)
	}
	for _, row := range res.Rows {
		if row.Submitted == 0 || row.Admitted == 0 || row.Plans == 0 {
			t.Errorf("%s: control plane idle: %+v", row.Cell, row)
		}
		if row.PeakLive == 0 || row.Crashes == 0 {
			t.Errorf("%s: peak live %d, crashes %d — harness not exercising churn under load",
				row.Cell, row.PeakLive, row.Crashes)
		}
		if row.Admitted > row.Submitted {
			t.Errorf("%s: admitted %d > submitted %d", row.Cell, row.Admitted, row.Submitted)
		}
		for p := 1; p <= 3; p++ {
			if row.SLO[p] < 0 || row.SLO[p] > 1 {
				t.Errorf("%s: P%d SLO %.3f outside [0,1]", row.Cell, p, row.SLO[p])
			}
		}
	}
}

// TestLoadFlashCrowdApplies: the flash cell must actually push the
// crowd into the hot session, and the damping layer must keep the
// resulting replan count per session bounded — a cascade would show up
// as MaxSessionReplans tracking the join count.
func TestLoadFlashCrowdApplies(t *testing.T) {
	opts := smallLoad(2)
	opts.Cells = []string{"flash"}
	res, err := Load(opts)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Row("flash")
	if row == nil {
		t.Fatal("no flash row")
	}
	if row.FlashJoins == 0 {
		t.Fatal("flash crowd applied zero joins")
	}
	if row.MaxSessionReplans > 32 {
		t.Errorf("replan cascade: worst session replanned %d times for %d joins",
			row.MaxSessionReplans, row.FlashJoins)
	}
	if row.Violations != 0 {
		t.Errorf("flash cell violations = %d: %s", row.Violations, row.FirstViolation)
	}
}

// TestLoadShedsLowestPriorityFirst: under flat 2.5x overload the
// degradation order must be visible in the SLO column — the highest
// class keeps better admission compliance than the lowest.
func TestLoadShedsLowestPriorityFirst(t *testing.T) {
	opts := smallLoad(3)
	opts.Cells = []string{"overload"}
	res, err := Load(opts)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Row("overload")
	if row.ShedOverload+row.ShedBudget+row.ShedDeadline+row.Rejected == 0 {
		t.Error("overload cell shed nothing — not actually overloaded")
	}
	if row.SLO[1] < row.SLO[3] {
		t.Errorf("degradation inverted: P1 SLO %.3f < P3 SLO %.3f", row.SLO[1], row.SLO[3])
	}
}

// TestLoadObserverEffectZero: running the study with a live metrics
// registry must not change a single row — instrumentation observes the
// control plane, never steers it.
func TestLoadObserverEffectZero(t *testing.T) {
	opts := smallLoad(4)
	opts.Cells = []string{"steady"}
	bare, err := Load(opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	opts.Registry = reg
	instrumented, err := Load(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare.Rows, instrumented.Rows) {
		t.Errorf("instrumentation changed the run:\n bare: %+v\n instrumented: %+v",
			bare.Rows[0], instrumented.Rows[0])
	}
	row := instrumented.Rows[0]
	snap := reg.Snapshot()
	checkCounters(t, snap, map[string]counterWant{
		"sched.plans":            exactly(row.Plans),
		"sched.replans":          exactly(row.Replans),
		"sched.preemptions":      exactly(row.Preemptions),
		"sched.admitted":         exactly(row.Admitted),
		"sched.rejected":         exactly(row.Rejected),
		"sched.shed":             exactly(row.ShedDeadline + row.ShedOverload + row.ShedBudget),
		"sched.preempt_deferred": exactly(row.PreemptDeferred),
		"faultnet.crashes":       exactly(row.Crashes),
		// No row carries these. A failure is a crash still down when
		// detection fires, a recovery a failed host's restart, and an
		// in-place repair follows a replan.
		"sched.node_failures":   between(1, row.Crashes),
		"sched.node_recoveries": between(0, int(snap.Counter("sched.node_failures"))),
		"sched.repairs_inplace": between(0, row.Replans),
		"faultnet.restarts":     between(0, row.Crashes),
		// The load study sends no messages: nothing to drop or delay.
		"faultnet.link_drops":      exactly(0),
		"faultnet.node_drops":      exactly(0),
		"faultnet.partition_drops": exactly(0),
		"faultnet.crash_drops":     exactly(0),
		"faultnet.delayed":         exactly(0),
	})
	// A gauge reads the scheduler as the run left it. A live session
	// holds a tree whose root serves a member over a path of positive
	// latency, and no host's bound in the paper's degree distribution
	// exceeds 9. The queue holds only sessions submitted and neither
	// admitted, rejected nor shed from it.
	live := row.EndLive > 0
	checkGauges(t, snap, map[string]gaugeWant{
		"sched.sessions":              gaugeExactly(row.EndLive),
		"sched.max_tree_height_ms":    gaugePositiveIf(live, math.Inf(1)),
		"sched.max_tree_degree":       gaugePositiveIf(live, 9),
		"sched.admission_queue_depth": gaugeBetween(0, row.Submitted-row.Admitted-row.Rejected-row.ShedDeadline),
	})
}

// TestSharedRegistryAcrossCells: a registry shared by several cells
// sums them, and is written from one goroutine at any worker count —
// run under -race, a registry written by parallel cells fails here.
func TestSharedRegistryAcrossCells(t *testing.T) {
	lo := smallLoad(4)
	lo.Cells = []string{"steady", "overload"}
	lo.Workers = 4
	lo.Registry = obs.New()
	lr, err := Load(lo)
	if err != nil {
		t.Fatal(err)
	}
	plans := 0
	for _, row := range lr.Rows {
		plans += row.Plans
	}
	if got := lo.Registry.Snapshot().Counter("sched.plans"); got != uint64(plans) {
		t.Errorf("load: shared sched.plans = %d, want the cells' sum %d", got, plans)
	}

	so := smallStream(3)
	so.Rungs = []float64{300}
	so.Workers = 4
	so.Registry = obs.New()
	sr, err := Stream(so)
	if err != nil {
		t.Fatal(err)
	}
	pulls := 0
	for _, row := range sr.Rows {
		pulls += row.PullsSent
	}
	if got := so.Registry.Snapshot().Counter("dataplane.pulls_sent"); len(sr.Rows) != 2 || got != uint64(pulls) {
		t.Errorf("stream: %d rows, shared dataplane.pulls_sent = %d, want 2 rows summing to %d", len(sr.Rows), got, pulls)
	}
}

// counterWant is the range [lo, hi] a registered counter must read in.
type counterWant struct{ lo, hi uint64 }

// exactly is a count a row reports itself.
func exactly(v int) counterWant { return counterWant{uint64(v), uint64(v)} }

// between bounds a count no row reports by the row numbers that imply it.
func between(lo, hi int) counterWant { return counterWant{uint64(lo), uint64(hi)} }

// atLeast bounds a count no row reports from below only.
func atLeast(lo int) counterWant { return counterWant{uint64(lo), math.MaxUint64} }

// checkCounters checks every counter in snap against want, which must
// name each one the instrumented layers register: a counter want does
// not list fails, and so does one it lists that snap lacks.
func checkCounters(t *testing.T, snap obs.Snapshot, want map[string]counterWant) {
	t.Helper()
	for _, c := range snap.Counters {
		w, ok := want[c.Name]
		switch {
		case !ok:
			t.Errorf("counter %s = %d is registered but not checked", c.Name, c.Value)
		case c.Value < w.lo || c.Value > w.hi:
			t.Errorf("counter %s = %d, want in [%d, %d]", c.Name, c.Value, w.lo, w.hi)
		}
		delete(want, c.Name)
	}
	for name := range want {
		t.Errorf("counter %s is not registered", name)
	}
}

// gaugeWant is the range [lo, hi] a registered gauge must read in.
type gaugeWant struct{ lo, hi float64 }

// gaugeExactly is a value a row reports itself.
func gaugeExactly(v int) gaugeWant { return gaugeWant{float64(v), float64(v)} }

// gaugeBetween bounds a value no row reports by the row numbers that
// imply it.
func gaugeBetween(lo, hi int) gaugeWant { return gaugeWant{float64(lo), float64(hi)} }

// gaugePositiveIf bounds a tree-shape value by hi, and from below by
// zero when no tree is live, or by anything above zero when one is.
func gaugePositiveIf(live bool, hi float64) gaugeWant {
	if live {
		return gaugeWant{math.SmallestNonzeroFloat64, hi}
	}
	return gaugeWant{0, hi}
}

// checkGauges checks every gauge in snap against want the way
// checkCounters checks counters: a gauge want does not list fails, and
// so does one it lists that snap lacks.
func checkGauges(t *testing.T, snap obs.Snapshot, want map[string]gaugeWant) {
	t.Helper()
	for _, g := range snap.Gauges {
		w, ok := want[g.Name]
		switch {
		case !ok:
			t.Errorf("gauge %s = %v is registered but not checked", g.Name, g.Value)
		case g.Value < w.lo || g.Value > w.hi:
			t.Errorf("gauge %s = %v, want in [%v, %v]", g.Name, g.Value, w.lo, w.hi)
		}
		delete(want, g.Name)
	}
	for name := range want {
		t.Errorf("gauge %s is not registered", name)
	}
}
