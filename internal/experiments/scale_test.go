package experiments

import (
	"strings"
	"sync"
	"testing"

	"p2ppool/internal/eventsim"
)

// The 200-host bench cell is deterministic and read-only once built, so
// every test in this file shares one run (it is the dominant cost under
// the race detector).
var smallScaleOnce struct {
	sync.Once
	res *ScaleResult
	err error
}

func smallScaleResult(t *testing.T) *ScaleResult {
	t.Helper()
	smallScaleOnce.Do(func() {
		smallScaleOnce.res, smallScaleOnce.err = Scale(ScaleOptions{
			Sizes: []int{200}, Runtime: 10 * eventsim.Second, GroupSize: 20,
			Seed: 1, Bench: true,
		})
	})
	if smallScaleOnce.err != nil {
		t.Fatal(smallScaleOnce.err)
	}
	return smallScaleOnce.res
}

func TestScaleRowShape(t *testing.T) {
	res := smallScaleResult(t)
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	row := res.Rows[0]
	if row.Oracle != "exact" {
		t.Errorf("200-host cell resolved oracle %q, want exact (600 routers)", row.Oracle)
	}
	if row.OracleErrP50 != 0 || row.OracleErrP90 != 0 {
		t.Errorf("exact oracle error p50=%v p90=%v, want 0", row.OracleErrP50, row.OracleErrP90)
	}
	if row.Routers != 600 {
		t.Errorf("routers = %d, want the paper's 600", row.Routers)
	}
	if row.Events == 0 || row.Records == 0 {
		t.Errorf("empty cell: events=%d records=%d", row.Events, row.Records)
	}
	if row.BenchHeapInuseMB <= 0 {
		t.Error("bench mode left heap_inuse unset")
	}
	// VmHWM comes from /proc/self/status; on linux it must be present
	// and at least as large as the live heap.
	if row.BenchPeakRSSMB > 0 && row.BenchPeakRSSMB < row.BenchHeapInuseMB {
		t.Errorf("peak RSS %.1f MB below live heap %.1f MB", row.BenchPeakRSSMB, row.BenchHeapInuseMB)
	}
}

func TestScaleTopologySubstrate(t *testing.T) {
	cases := []struct{ hosts, routers int }{
		{1200, 600},    // the paper's exact substrate
		{3000, 1464},   // 10 stub domains per transit
		{30000, 15000}, // past the exact-oracle threshold
		{100000, 49992},
	}
	for _, c := range cases {
		top := scaleTopology(c.hosts, ScaleOptions{Seed: 1})
		if got := top.NumRouters(); got != c.routers {
			t.Errorf("scaleTopology(%d): %d routers, want %d", c.hosts, got, c.routers)
		}
	}
}

func TestScaleTableHasOracleColumns(t *testing.T) {
	res := smallScaleResult(t)
	tabs := res.Tables()
	if len(tabs) != 1 {
		t.Fatalf("got %d tables", len(tabs))
	}
	header := strings.Join(tabs[0].Columns, "|")
	for _, col := range []string{"oracle", "err p50", "err p90", "routers"} {
		if !strings.Contains(header, col) {
			t.Errorf("table missing column %q (have %s)", col, header)
		}
	}
}
