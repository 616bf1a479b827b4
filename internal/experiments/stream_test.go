package experiments

import (
	"math"
	"reflect"
	"testing"

	"p2ppool/internal/eventsim"
	"p2ppool/internal/obs"
)

// smallStream is a fast configuration that still exercises every moving
// part: planning from bandwidth estimates, access-link contention, live
// routing swaps under churn, and mesh-pull recovery.
func smallStream(seed int64) StreamOptions {
	return StreamOptions{
		Hosts:     600,
		Sessions:  3,
		GroupSize: 20,
		Chunks:    15,
		Rungs:     []float64{300, 700},
		Cells:     []string{"live", "live-churn"},
		Leafset:   8,
		// ~2x the default churn intensity, and restarts fast enough to
		// land inside the short stream: a restarted member is alive
		// (expected) but stripped from the session's tree, so its
		// remaining chunks are exactly the mesh-pull path the recovery
		// assertions measure.
		CrashRate:    50,
		RestartDelay: 4 * eventsim.Second,
		Seed:         seed,
	}
}

// TestStreamAttributionPartitions: every expected (member, chunk) pair
// must land in exactly one outcome bucket, and the tree-miss
// attribution must partition the misses — the acceptance bar for the
// study's headline table.
func TestStreamAttributionPartitions(t *testing.T) {
	res, err := Stream(smallStream(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 2 cells x 2 rungs", len(res.Rows))
	}
	if n := res.ViolationCount(); n != 0 {
		tabs := res.Tables()
		t.Errorf("%d invariant violations:\n%s", n, tabs[len(tabs)-1])
	}
	for _, row := range res.Rows {
		if row.Planned == 0 {
			t.Errorf("%s@%.0f: no session ever obtained a tree", row.Cell, row.RungKbps)
		}
		if row.Expected == 0 {
			t.Errorf("%s@%.0f: zero expected chunks — pump never ran", row.Cell, row.RungKbps)
			continue
		}
		if got := row.OnTimeTree + row.PullRecovered + row.Late + row.Lost; got != row.Expected {
			t.Errorf("%s@%.0f: outcomes sum to %d, want Expected=%d",
				row.Cell, row.RungKbps, got, row.Expected)
		}
		if got := row.PullRecovered + row.Late + row.Lost; got != row.TreeMisses {
			t.Errorf("%s@%.0f: miss attribution sums to %d, want TreeMisses=%d",
				row.Cell, row.RungKbps, got, row.TreeMisses)
		}
		if row.DeliveredKbps <= 0 {
			t.Errorf("%s@%.0f: delivered %.1f kbps — nothing arrived on time",
				row.Cell, row.RungKbps, row.DeliveredKbps)
		}
		if row.BoundKbps <= 0 {
			t.Errorf("%s@%.0f: capacity bound %.1f", row.Cell, row.RungKbps, row.BoundKbps)
		}
		if row.MissRate < 0 || row.MissRate > 1 {
			t.Errorf("%s@%.0f: miss rate %.3f outside [0,1]", row.Cell, row.RungKbps, row.MissRate)
		}
		if row.SourceOffload <= 0 {
			t.Errorf("%s@%.0f: offload %.3f — relays forwarded nothing",
				row.Cell, row.RungKbps, row.SourceOffload)
		}
	}
}

// TestStreamChurnRecoversViaPull: the churn cell must actually crash
// streaming members, and mesh-pull must recover a nonzero share of the
// resulting tree misses — the contract distinguishing the hybrid
// design from tree-only delivery.
func TestStreamChurnRecoversViaPull(t *testing.T) {
	res, err := Stream(smallStream(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, rung := range res.Opts.Rungs {
		calm := res.Row("live", rung)
		churn := res.Row("live-churn", rung)
		if calm == nil || churn == nil {
			t.Fatalf("missing rows at rung %.0f", rung)
		}
		if calm.Crashes != 0 {
			t.Errorf("live@%.0f: %d crashes in the churn-free cell", rung, calm.Crashes)
		}
		if churn.Crashes == 0 {
			t.Errorf("live-churn@%.0f: churn cell crashed nobody", rung)
		}
		if churn.TreeMisses == 0 {
			t.Errorf("live-churn@%.0f: churn produced zero tree misses", rung)
		} else if churn.PullRecovered == 0 {
			t.Errorf("live-churn@%.0f: mesh-pull recovered none of %d tree misses",
				rung, churn.TreeMisses)
		}
		if churn.Repairs == 0 {
			t.Errorf("live-churn@%.0f: control plane repaired nothing under churn", rung)
		}
	}
}

// TestStreamObserverEffectZero: instrumentation observes the data
// plane, never steers it.
func TestStreamObserverEffectZero(t *testing.T) {
	opts := smallStream(3)
	opts.Cells = []string{"live-churn"}
	bare, err := Stream(opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	opts.Registry = reg
	instrumented, err := Stream(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare.Rows, instrumented.Rows) {
		t.Errorf("instrumentation changed the run:\n bare: %+v\n instrumented: %+v",
			bare.Rows[0], instrumented.Rows[0])
	}
	var dups, pulls, pullRec, arrived, planned, crashes, repairs, replans int
	for _, row := range instrumented.Rows {
		dups += row.Duplicates
		pulls += row.PullsSent
		pullRec += row.PullRecovered
		// An expected pair that arrived at all was one first receipt.
		arrived += row.Expected - row.Lost
		planned += row.Planned
		crashes += row.Crashes
		repairs += row.Repairs
		replans += row.Replans
	}
	sessions := opts.Sessions * len(instrumented.Rows)
	snap := reg.Snapshot()
	checkCounters(t, snap, map[string]counterWant{
		"dataplane.duplicates":     exactly(dups),
		"dataplane.pulls_sent":     exactly(pulls),
		"dataplane.pull_recovered": exactly(pullRec),
		"sched.replans":            exactly(replans),
		"sched.repairs_inplace":    exactly(repairs),
		"faultnet.crashes":         exactly(crashes),
		// No row carries these. Every receipt is a first one or a
		// duplicate, and every sent chunk a receipt, a drop or still
		// in flight.
		"dataplane.chunks_delivered": atLeast(arrived),
		"dataplane.chunks_sent":      atLeast(int(snap.Counter("dataplane.chunks_delivered")) + dups),
		// Chunks and pulls are the only traffic.
		"faultnet.crash_drops": between(0, int(snap.Counter("dataplane.chunks_sent"))+pulls),
		"sched.admitted":       between(planned, sessions),
		"sched.plans":          atLeast(int(snap.Counter("sched.admitted"))),
		"sched.rejected":       between(0, sessions),
		"sched.shed":           between(0, sessions),
		"sched.preemptions":    between(0, replans),
		// Deferrals are failed plans, which no row counts.
		"sched.preempt_deferred": atLeast(0),
		"sched.node_failures":    between(1, crashes),
		"sched.node_recoveries":  between(0, int(snap.Counter("sched.node_failures"))),
		"faultnet.restarts":      between(0, crashes),
		// No loss rule, partition or jitter is configured.
		"faultnet.link_drops":      exactly(0),
		"faultnet.node_drops":      exactly(0),
		"faultnet.partition_drops": exactly(0),
		"faultnet.delayed":         exactly(0),
	})
	// Runs that share a registry go in turn, so a gauge holds the last
	// run's value. Its planned sessions are live and the rest may have
	// lost their root; the queue holds none of the planned ones; and
	// uplinkDegree caps every host at 16.
	last := instrumented.Rows[len(instrumented.Rows)-1]
	live := last.Planned > 0
	checkGauges(t, snap, map[string]gaugeWant{
		"sched.sessions":              gaugeBetween(last.Planned, opts.Sessions),
		"sched.max_tree_height_ms":    gaugePositiveIf(live, math.Inf(1)),
		"sched.max_tree_degree":       gaugePositiveIf(live, 16),
		"sched.admission_queue_depth": gaugeBetween(0, opts.Sessions-last.Planned),
	})
}
