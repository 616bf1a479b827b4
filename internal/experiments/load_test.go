package experiments

import (
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
	snap := reg.Snapshot()
	if len(snap.Counters) == 0 {
		t.Error("instrumented run recorded no metrics")
	}
}
