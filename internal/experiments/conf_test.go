package experiments

import (
	"slices"
	"testing"

	"p2ppool/internal/eventsim"
)

// smallConf is a fast configuration that still exercises every moving
// part: multi-source planning against one shared ledger, M concurrent
// pumps per conference under shared contention, market competition
// from broadcasts, churn with restarted sources taken back by
// Scheduler.Rejoin, and the continuous invariant sweeps.
func smallConf(seed int64) ConfOptions {
	return ConfOptions{
		Hosts:         600,
		Conferences:   2,
		ConfSize:      4,
		Broadcasts:    2,
		BroadcastSize: 12,
		Chunks:        10,
		Leafset:       8,
		// Hot churn with restarts fast enough that rejoined sources get
		// to pump again inside the short run.
		CrashRate:    40,
		RestartDelay: 4 * eventsim.Second,
		Seed:         seed,
	}
}

// TestConfSharedBoundDelivery: the headline contract — every cell plans
// all (session, source) trees, every source delivers, the shared
// member-only bound sits below the single-source bound, and the
// outcome buckets partition the expected pairs.
func TestConfSharedBoundDelivery(t *testing.T) {
	opts := smallConf(1)
	res, err := Conf(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4 cells", len(res.Rows))
	}
	if n := res.ViolationCount(); n != 0 {
		t.Errorf("%d ledger invariant violations", n)
	}
	for _, row := range res.Rows {
		if row.Sources != opts.Conferences*opts.ConfSize {
			t.Errorf("%s: %d source pumps, want %d", row.Cell, row.Sources, opts.Conferences*opts.ConfSize)
		}
		if row.ConfTrees == 0 {
			t.Errorf("%s: no conference tree survived to harvest", row.Cell)
		}
		if row.Expected == 0 {
			t.Errorf("%s: zero expected chunks — pumps never ran", row.Cell)
			continue
		}
		if got := row.OnTimeTree + row.PullRecovered + row.Late + row.Lost; got != row.Expected {
			t.Errorf("%s: outcomes sum to %d, want Expected=%d", row.Cell, got, row.Expected)
		}
		if row.DeliveredKbps <= 0 {
			t.Errorf("%s: delivered %.1f kbps — nothing arrived on time", row.Cell, row.DeliveredKbps)
		}
		if row.SharedBoundKbps <= 0 || row.IsoBoundKbps <= 0 {
			t.Errorf("%s: bounds %.1f/%.1f", row.Cell, row.SharedBoundKbps, row.IsoBoundKbps)
		}
		// M sources splitting the roster's uplink M*(M-1) ways must see
		// a tighter bound than one source owning it all.
		if row.SharedBoundKbps >= row.IsoBoundKbps {
			t.Errorf("%s: shared bound %.1f >= iso bound %.1f", row.Cell, row.SharedBoundKbps, row.IsoBoundKbps)
		}
		if row.MaxHeightMS <= 0 || row.MeanHeightMS <= 0 || row.MeanHeightMS > row.MaxHeightMS {
			t.Errorf("%s: heights mean %.1f max %.1f", row.Cell, row.MeanHeightMS, row.MaxHeightMS)
		}
		if row.Violations != 0 {
			t.Errorf("%s: %d invariant violation(s), first: %s", row.Cell, row.Violations, row.FirstViolation)
		}
	}
	// The headline: in the calm solo cell the rosters' own uplink
	// cannot carry the call (the shared bound sits below the rung), yet
	// delivery beats the bound — the difference is uplink recruited
	// from the resource pool.
	if solo := res.Row("solo"); solo.DeliveredKbps <= solo.SharedBoundKbps {
		t.Errorf("solo: delivered %.1f kbps does not beat the member-only shared bound %.1f — helpers contributed nothing",
			solo.DeliveredKbps, solo.SharedBoundKbps)
	}
	// Market cells run competing broadcasts; solo cells must not.
	for _, cell := range []string{"market", "market-churn"} {
		row := res.Row(cell)
		if row == nil {
			t.Fatalf("missing %s row", cell)
		}
		if row.BcastPlanned == 0 {
			t.Errorf("%s: no broadcast obtained a tree", cell)
		}
		if row.BcastDeliveredKbps <= 0 {
			t.Errorf("%s: broadcasts delivered nothing", cell)
		}
	}
	for _, cell := range []string{"solo", "solo-churn"} {
		if row := res.Row(cell); row.BcastPlanned != 0 || row.BcastDeliveredKbps != 0 {
			t.Errorf("%s: broadcasts present in a solo cell", cell)
		}
	}
}

// TestConfChurnRejoins: churn cells must crash live sources, the
// control plane must repair or replan around them, and restarted
// members must rejoin, as members and sources, through Rejoin.
func TestConfChurnRejoins(t *testing.T) {
	res, err := Conf(smallConf(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []string{"solo", "market"} {
		if row := res.Row(cell); row.Crashes != 0 {
			t.Errorf("%s: %d crashes in a churn-free cell", cell, row.Crashes)
		}
	}
	for _, cell := range []string{"solo-churn", "market-churn"} {
		row := res.Row(cell)
		if row.Crashes == 0 {
			t.Errorf("%s: churn cell crashed nobody", cell)
		}
		if row.Rejoins == 0 {
			t.Errorf("%s: no restarted member rejoined its conference", cell)
		}
		if row.Repairs+row.Replans == 0 {
			t.Errorf("%s: control plane neither repaired nor replanned under churn", cell)
		}
		if row.Violations != 0 {
			t.Errorf("%s: %d invariant violation(s) under churn, first: %s",
				cell, row.Violations, row.FirstViolation)
		}
	}
}

// TestConfPumpKeysUnique: at seed 24 two sources of the default-size
// solo cell once mapped to one pump key (session ID x 1000 + source
// host, with hosts past 1000), and the run failed with "session 7294
// already pumping". A pump is keyed by its index now, so every
// (session, source) pump starts.
func TestConfPumpKeysUnique(t *testing.T) {
	opts := ConfOptions{Seed: 24, Cells: []string{"solo"}}
	res, err := Conf(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts = opts.withDefaults()
	if row := res.Row("solo"); row.Sources != opts.Conferences*opts.ConfSize {
		t.Errorf("solo: %d source pumps, want %d", row.Sources, opts.Conferences*opts.ConfSize)
	}
}

// TestConfTablesShowFirstViolation: like load and stream, conf lists
// each cell whose sweeps found something with its first violation, in
// a table that a clean run does not print.
func TestConfTablesShowFirstViolation(t *testing.T) {
	res := &ConfResult{Rows: []ConfRow{{Cell: "solo"}, {Cell: "market"}}}
	res.Rows[1].Violations, res.Rows[1].FirstViolation = 2, "t=5.0s sched/ledger: host 3"
	tables := res.Tables()
	if len(tables) != 3 {
		t.Fatalf("%d tables, want delivery, market and violations", len(tables))
	}
	viol := tables[2]
	if viol.Title != "Conferencing: invariant violations" || len(viol.Rows) != 1 ||
		!slices.Equal(viol.Rows[0], []string{"market", "2", "t=5.0s sched/ledger: host 3"}) {
		t.Fatalf("violations table %q rows %v", viol.Title, viol.Rows)
	}
	res.Rows[1].Violations = 0
	if n := len(res.Tables()); n != 2 {
		t.Fatalf("clean run renders %d tables, want 2", n)
	}
}
