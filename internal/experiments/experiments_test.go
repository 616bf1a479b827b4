package experiments

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tab := Table{
		Title:   "T",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "22"}, {"333", "4"}},
		Note:    "n",
	}
	s := tab.String()
	if !strings.Contains(s, "== T ==") || !strings.Contains(s, "333") || !strings.Contains(s, "note: n") {
		t.Errorf("render:\n%s", s)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("csv: %q", csv)
	}
	quoted := Table{Columns: []string{`x,y`, `q"`}, Rows: [][]string{{"v", "w"}}}
	if !strings.Contains(quoted.CSV(), `"x,y"`) || !strings.Contains(quoted.CSV(), `"q"""`) {
		t.Errorf("csv quoting: %q", quoted.CSV())
	}
}

func TestFig4ShapeSmall(t *testing.T) {
	res, err := Fig4(Fig4Options{Hosts: 400, Pairs: 800, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("series = %d", len(res.Series))
	}
	byName := map[string]Fig4Series{}
	for _, s := range res.Series {
		byName[s.Name] = s
		if len(s.Errors) == 0 {
			t.Fatalf("series %s empty", s.Name)
		}
	}
	// Paper shape 1: leafset more sensitive to L than GNP to landmarks:
	// Leafset-32 clearly better than Leafset-16 at the 80th percentile.
	l16 := byName["Leafset-16"].CDF.Quantile(0.8)
	l32 := byName["Leafset-32"].CDF.Quantile(0.8)
	if l32 > l16 {
		t.Errorf("Leafset-32 p80 %.3f worse than Leafset-16 %.3f", l32, l16)
	}
	// Paper shape 2: Leafset-32 in the same class as GNP-16 (within a
	// small factor at the 80th percentile).
	g16 := byName["GNP-16"].CDF.Quantile(0.8)
	if l32 > 4*g16+0.1 {
		t.Errorf("Leafset-32 p80 %.3f not in GNP-16 class (%.3f)", l32, g16)
	}
	tables := res.Tables()
	if len(tables) != 2 {
		t.Fatal("fig4 should render two tables")
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := Fig5(Fig5Options{Hosts: 600, LeafsetSizes: []int{2, 8, 32}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Error decreases with leafset size.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].AvgUpError > res.Rows[i-1].AvgUpError+0.02 {
			t.Errorf("uplink error not decreasing: %v then %v",
				res.Rows[i-1].AvgUpError, res.Rows[i].AvgUpError)
		}
	}
	last := res.Rows[len(res.Rows)-1]
	if last.AvgUpError > 0.05 {
		t.Errorf("uplink error at L=32 is %.3f, want ~0", last.AvgUpError)
	}
	if last.AvgDownError < last.AvgUpError {
		t.Error("downlink should be less accurate than uplink")
	}
	if last.UpRankCorr < 0.99 {
		t.Errorf("uplink rank correlation %.3f at L=32, want ~1", last.UpRankCorr)
	}
	if len(res.Tables()) != 1 {
		t.Fatal("fig5 should render one table")
	}
}

func TestFig8ShapeSmall(t *testing.T) {
	res, err := Fig8(Fig8Options{
		Hosts:      600,
		GroupSizes: []int{20, 60},
		Runs:       4,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Ordering: bound >= Critical+adju >= Leafset+adju (usually) and
		// all helper algorithms beat adjust-only on small groups.
		if row.Bound < row.CriticalAdj-0.03 {
			t.Errorf("group %d: bound %.3f below Critical+adju %.3f", row.GroupSize, row.Bound, row.CriticalAdj)
		}
		if row.CriticalAdj < row.AMCastAdjust {
			t.Errorf("group %d: Critical+adju %.3f below AMCast+adju %.3f",
				row.GroupSize, row.CriticalAdj, row.AMCastAdjust)
		}
		if row.LeafsetAdj < row.AMCastAdjust-0.02 {
			t.Errorf("group %d: Leafset+adju %.3f below AMCast+adju %.3f",
				row.GroupSize, row.LeafsetAdj, row.AMCastAdjust)
		}
		if row.Helpers <= 0 {
			t.Errorf("group %d: no helpers recruited", row.GroupSize)
		}
	}
	// Small groups gain at least 15% from Critical+adju.
	if res.Rows[0].CriticalAdj < 0.15 {
		t.Errorf("group 20 Critical+adju %.3f, want >= 0.15", res.Rows[0].CriticalAdj)
	}
	if len(res.Tables()) != 1 {
		t.Fatal("fig8 should render one table")
	}
}

func TestFig8BadGroupSize(t *testing.T) {
	if _, err := Fig8(Fig8Options{Hosts: 100, GroupSizes: []int{1000}, Runs: 1, Seed: 1}); err == nil {
		t.Error("oversized group should fail")
	}
}

func TestFig10ShapeSmall(t *testing.T) {
	res, err := Fig10(Fig10Options{
		Hosts:         600,
		SessionCounts: []int{10, 30},
		GroupSize:     20,
		Runs:          2,
		Seed:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		for p := 1; p <= 3; p++ {
			// Every class should land between loose versions of the
			// bounds (sampling noise allowed).
			if row.Improvement[p] > row.UpperBound+0.1 {
				t.Errorf("sessions=%d prio %d improvement %.3f above upper bound %.3f",
					row.Sessions, p, row.Improvement[p], row.UpperBound)
			}
			if row.Helpers[p] < 0 {
				t.Errorf("negative helper count")
			}
		}
	}
	// Under heavy competition (30 sessions on 600 hosts = every host a
	// member), priority 1 should do at least as well as priority 3.
	heavy := res.Rows[1]
	if heavy.Improvement[1] < heavy.Improvement[3]-0.05 {
		t.Errorf("priority 1 improvement %.3f below priority 3 %.3f under competition",
			heavy.Improvement[1], heavy.Improvement[3])
	}
	if len(res.Tables()) != 2 {
		t.Fatal("fig10 should render two tables")
	}
}

func TestFig10Oversubscribed(t *testing.T) {
	if _, err := Fig10(Fig10Options{Hosts: 100, SessionCounts: []int{10}, GroupSize: 20, Runs: 1}); err == nil {
		t.Error("oversubscribed pool should fail")
	}
}

// TestStudiesRefuseASmallPool: a pool smaller than a study's rosters,
// landmark set or leafset is an error at the study's entry — not a
// panic, and not a draw of distinct hosts that never ends.
func TestStudiesRefuseASmallPool(t *testing.T) {
	studies := []struct {
		name string
		run  func() error
	}{
		{"fig4", func() error { _, err := Fig4(Fig4Options{Hosts: 5, Seed: 1}); return err }},
		{"fig8", func() error { _, err := Fig8(Fig8Options{Hosts: 5, Seed: 1}); return err }},
		{"fig10", func() error { _, err := Fig10(Fig10Options{Hosts: 5, Seed: 1}); return err }},
		{"qos", func() error { _, err := QoS(QoSOptions{Hosts: 5, Seed: 1}); return err }},
		{"ablations", func() error { _, err := Ablations(AblationOptions{Hosts: 5, Seed: 1}); return err }},
		{"chaos", func() error { _, err := Chaos(ChaosOptions{Hosts: 5, Seed: 1}); return err }},
		{"audit", func() error { _, err := Audit(AuditOptions{Hosts: 5, Seed: 1}); return err }},
		{"scale", func() error { _, err := Scale(ScaleOptions{Sizes: []int{5}, Seed: 1}); return err }},
		{"load", func() error { _, err := Load(LoadOptions{Hosts: 5, Seed: 1}); return err }},
		{"load-7", func() error { _, err := Load(LoadOptions{Hosts: 7, Seed: 1}); return err }},
		{"stream", func() error { _, err := Stream(StreamOptions{Hosts: 5, Seed: 1}); return err }},
		{"conf", func() error { _, err := Conf(ConfOptions{Hosts: 5, Seed: 1}); return err }},
		{"capacityWorld", func() error { _, _, _, err := capacityWorld(1, 5, 16); return err }},
	}
	for _, st := range studies {
		t.Run(st.name, func(t *testing.T) {
			type outcome struct {
				err    error
				panicV any
			}
			done := make(chan outcome, 1)
			go func() {
				var o outcome
				defer func() { o.panicV = recover(); done <- o }()
				o.err = st.run()
			}()
			select {
			case o := <-done:
				switch {
				case o.panicV != nil:
					t.Errorf("panicked: %v", o.panicV)
				case o.err == nil:
					t.Error("ran without an error")
				}
			case <-time.After(time.Minute):
				t.Fatal("still running after a minute")
			}
		})
	}
	if got := distinct(rand.New(rand.NewSource(1)), 5, 16); len(got) != 5 {
		t.Errorf("distinct drew %d ints for 16 from [0, 5), want all 5", len(got))
	}
}

func TestSOMOExperimentSmall(t *testing.T) {
	res, err := SOMOExperiment(SOMOOptions{
		Sizes:   []int{32},
		Fanouts: []int{8},
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // unsync + sync
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Records < 30 {
			t.Errorf("snapshot incomplete: %d records", row.Records)
		}
		if row.Staleness <= 0 {
			t.Errorf("staleness not measured")
		}
		if row.Staleness > 3*row.StalenessBound+float64(5000) {
			t.Errorf("staleness %.0f far beyond bound %.0f", row.Staleness, row.StalenessBound)
		}
		if row.Depth < 1 || row.Depth > 4*row.LogBound+2 {
			t.Errorf("depth %d implausible for log bound %d", row.Depth, row.LogBound)
		}
	}
	// Synchronized flow should be fresher.
	if res.Rows[1].Staleness >= res.Rows[0].Staleness {
		t.Errorf("sync staleness %.0f >= unsync %.0f", res.Rows[1].Staleness, res.Rows[0].Staleness)
	}
	if len(res.Tables()) != 2 {
		t.Fatal("somo should render two tables")
	}
}

func TestAblationsSmall(t *testing.T) {
	res, err := Ablations(AblationOptions{Hosts: 400, GroupSize: 15, Runs: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	tabs := res.Tables()
	if len(tabs) != 4 {
		t.Fatalf("ablations should render 4 tables, got %d", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) == 0 {
			t.Errorf("table %q empty", tab.Title)
		}
		if tab.String() == "" {
			t.Error("empty render")
		}
	}
}

func TestChurnSmall(t *testing.T) {
	res, err := Churn(ChurnOptions{Nodes: 48, CrashFractions: []float64{0.1, 0.25}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.Recovered {
			t.Errorf("crash of %d/%d did not recover within the window", row.Crashed, row.Nodes)
		}
		if row.Recovered && (row.RecoverySeconds <= 0 || row.RecoverySeconds > 300) {
			t.Errorf("implausible recovery time %.1fs", row.RecoverySeconds)
		}
	}
	if len(res.Tables()) != 1 {
		t.Fatal("churn should render one table")
	}
}

func TestQoSSmall(t *testing.T) {
	res, err := QoS(QoSOptions{Hosts: 400, GroupSize: 15, Runs: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]QoSRow{}
	for _, row := range res.Rows {
		byName[row.Algorithm] = row
		if row.MaxHeight <= 0 || row.Depth <= 0 || row.BottleneckBW <= 0 {
			t.Errorf("%s: implausible metrics %+v", row.Algorithm, row)
		}
	}
	// Helper trees must win on the optimized objective.
	if byName["Critical+adju"].MaxHeight >= byName["AMCast"].MaxHeight {
		t.Error("Critical+adju should have lower max height than AMCast")
	}
	if byName["AMCast"].HelpersUsed != 0 {
		t.Error("AMCast should use no helpers")
	}
	if len(res.Tables()) != 1 {
		t.Fatal("qos should render one table")
	}
}
