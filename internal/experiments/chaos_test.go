package experiments

import (
	"testing"

	"p2ppool/internal/eventsim"
	"p2ppool/internal/sched"
)

// TestChaosBaselineMatchesScheduler: with faults disabled (rate 0) the
// chaos harness must be a pure observer — its session plan is exactly
// what the scheduler produces on the same world outside the harness,
// and every packet is delivered.
func TestChaosBaselineMatchesScheduler(t *testing.T) {
	opts := ChaosOptions{Hosts: 64, GroupSize: 12, Rates: []float64{0},
		Window: 30 * eventsim.Second, Seed: 3, Workers: 1}
	res, err := Chaos(opts)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.Crashes != 0 || row.Replans != 0 || row.Drops != 0 {
		t.Errorf("fault-free row saw faults: %+v", row)
	}
	if row.DeliveryRatio() != 1 {
		t.Errorf("delivery ratio = %v, want 1", row.DeliveryRatio())
	}
	if row.PeakHeight != row.BaselineHeight {
		t.Errorf("height moved without faults: base %v peak %v", row.BaselineHeight, row.PeakHeight)
	}

	// Replan the same world directly, without the chaos harness.
	net, degrees, sess, err := chaosWorld(opts.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	sc := sched.NewScheduler(degrees, net.Latency, sched.Config{})
	if err := sc.AddSession(sess); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}
	if h := sess.Tree.MaxHeight(net.Latency); h != row.BaselineHeight {
		t.Errorf("chaos baseline height %v != direct plan height %v", row.BaselineHeight, h)
	}
}

// TestChaosRepairsEveryTreeCrash: under churn, every crash that hits a
// tree node must be followed by a completed repair (chaosRun itself
// fails the run on any invariant-registry violation, swept after each
// repair and every 5 s: an invalid tree, a missing member, a dead node
// left in the tree, a ledger that does not match the tree).
func TestChaosRepairsEveryTreeCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("event-driven chaos study is slow; covered by the long run")
	}
	res, err := Chaos(ChaosOptions{Hosts: 64, GroupSize: 12, Rates: []float64{2},
		Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.Crashes == 0 || row.TreeCrashes == 0 {
		t.Fatalf("churn injected nothing: %+v", row)
	}
	if row.Repairs != row.TreeCrashes {
		t.Errorf("repairs = %d, tree crashes = %d", row.Repairs, row.TreeCrashes)
	}
	// Detection dominates repair latency.
	if row.MeanRepairSeconds < 4 || row.MeanRepairSeconds > 10 {
		t.Errorf("mean repair = %vs, want ~detection delay", row.MeanRepairSeconds)
	}
	if r := row.DeliveryRatio(); r <= 0.5 || r >= 1 {
		t.Errorf("delivery ratio = %v, want in (0.5, 1) under churn+partition", r)
	}
	if row.Drops == 0 {
		t.Error("no injected drops recorded")
	}
}

func TestChaosWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("event-driven chaos study is slow; covered by the long run")
	}
	assertWorkerInvariant(t, func(w int) (Result, error) {
		return Chaos(ChaosOptions{Hosts: 64, GroupSize: 10, Rates: []float64{0, 1, 4},
			Window: 2 * eventsim.Minute, Seed: 1, Workers: w})
	})
}
