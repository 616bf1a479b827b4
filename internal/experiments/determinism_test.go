package experiments

import (
	"strings"
	"testing"

	"p2ppool/internal/eventsim"
)

// The parallel-determinism contract: every experiment draws all of its
// randomness sequentially before fanning deterministic work out over
// the worker pool and merges results in run order, so the rendered
// output is byte-identical for any Workers value. These tests are the
// guardrail: each figure runs with Workers 1 and 8 at the same seed
// and the rendered tables (text and CSV) must match exactly. The six
// classic figures also check their Workers=1 rendering against
// testdata/studies.golden (checkGolden), which pins them across commits
// without running any figure a third time.

func renderAll(res Result) string {
	var b strings.Builder
	for _, tab := range res.Tables() {
		b.WriteString(tab.String())
		b.WriteString(tab.CSV())
	}
	return b.String()
}

// assertWorkerInvariant returns the Workers=1 rendering.
func assertWorkerInvariant(t *testing.T, run func(workers int) (Result, error)) string {
	t.Helper()
	seq, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	parl, err := run(8)
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderAll(seq), renderAll(parl)
	if a != b {
		t.Errorf("output differs between Workers=1 and Workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", a, b)
	}
	return a
}

func TestFig4WorkerDeterminism(t *testing.T) {
	checkGolden(t, "fig4", assertWorkerInvariant(t, func(w int) (Result, error) {
		return Fig4(Fig4Options{Hosts: 300, Pairs: 400, Seed: 1, Workers: w})
	}))
}

func TestFig5WorkerDeterminism(t *testing.T) {
	checkGolden(t, "fig5", assertWorkerInvariant(t, func(w int) (Result, error) {
		return Fig5(Fig5Options{Hosts: 300, LeafsetSizes: []int{4, 8, 16}, Seed: 1, Workers: w})
	}))
}

func TestFig8WorkerDeterminism(t *testing.T) {
	checkGolden(t, "fig8", assertWorkerInvariant(t, func(w int) (Result, error) {
		return Fig8(Fig8Options{Hosts: 400, GroupSizes: []int{10, 20}, Runs: 3, Seed: 1, Workers: w})
	}))
}

// The second point is contended: at 30 sessions of 20 on 600 hosts a
// plan displaces a session whose turn in the same replanning round has
// not come yet, which the first point's load never does.
func TestFig10WorkerDeterminism(t *testing.T) {
	var got strings.Builder
	for _, o := range []Fig10Options{
		{Hosts: 400, SessionCounts: []int{4, 8}, GroupSize: 10, Runs: 2},
		{Hosts: 600, SessionCounts: []int{20, 30}, GroupSize: 20, Runs: 2},
	} {
		got.WriteString(assertWorkerInvariant(t, func(w int) (Result, error) {
			o.Seed, o.Workers = 1, w
			return Fig10(o)
		}))
	}
	checkGolden(t, "fig10", got.String())
}

func TestQoSWorkerDeterminism(t *testing.T) {
	checkGolden(t, "qos", assertWorkerInvariant(t, func(w int) (Result, error) {
		return QoS(QoSOptions{Hosts: 400, GroupSize: 10, Runs: 4, Seed: 1, Workers: w})
	}))
}

func TestChurnWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("event-driven churn study is slow; covered by the long run")
	}
	assertWorkerInvariant(t, func(w int) (Result, error) {
		return Churn(ChurnOptions{Nodes: 64, CrashFractions: []float64{0.1, 0.2}, Seed: 1, Workers: w})
	})
}

func TestSOMOWorkerDeterminism(t *testing.T) {
	assertWorkerInvariant(t, func(w int) (Result, error) {
		return SOMOExperiment(SOMOOptions{
			Sizes: []int{64}, Fanouts: []int{2, 8}, Runtime: 45 * eventsim.Second,
			Seed: 1, Workers: w,
		})
	})
}

// The scale study runs its ring on the sharded event loop, so its
// worker invariant covers the conservative-PDES path: 8 shards
// advancing in lockstep windows must produce byte-identical tables
// whether they execute on 1, 4 or 16 workers (which also exercises
// more workers than shards).
func TestScaleWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("three-way sharded-loop sweep is slow; covered by the long run")
	}
	run := func(w int) (Result, error) {
		return Scale(ScaleOptions{
			Sizes: []int{200, 400}, Runtime: 30 * eventsim.Second, GroupSize: 20,
			Seed: 1, Workers: w,
		})
	}
	base, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(base)
	for _, w := range []int{4, 16} {
		res, err := run(w)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderAll(res); got != want {
			t.Errorf("scale output differs between Workers=1 and Workers=%d:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s", w, want, w, got)
		}
	}
}

// The load study is the control plane's soak harness, so like the
// audit it is diffed across three worker counts: per-cell engines plus
// pre-drawn arrival/churn schedules must render byte-identically
// however the cells are spread over workers.
func TestLoadWorkerDeterminism(t *testing.T) {
	run := func(w int) (Result, error) {
		opts := smallLoad(1)
		opts.Hosts = 300
		opts.Window = 45 * eventsim.Second
		opts.Workers = w
		return Load(opts)
	}
	base, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(base)
	for _, w := range []int{4, 16} {
		res, err := run(w)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderAll(res); got != want {
			t.Errorf("load output differs between Workers=1 and Workers=%d:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s", w, want, w, got)
		}
	}
}

// The stream study is the data plane's soak harness and feeds
// BENCH_stream.json, so like the load study it is diffed across three
// worker counts: per-run engines, pre-drawn rosters, churn schedules
// and mesh-neighbor sets must render byte-identically however the
// (cell, rung) runs are spread over workers.
func TestStreamWorkerDeterminism(t *testing.T) {
	run := func(w int) (Result, error) {
		opts := smallStream(1)
		opts.Hosts = 300
		opts.Chunks = 8
		opts.Workers = w
		return Stream(opts)
	}
	base, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(base)
	for _, w := range []int{4, 16} {
		res, err := run(w)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderAll(res); got != want {
			t.Errorf("stream output differs between Workers=1 and Workers=%d:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s", w, want, w, got)
		}
	}
}

// The conferencing study drives the multi-source scheduler grain and
// feeds BENCH_conf.json, so it is diffed across three worker counts:
// per-cell engines, pre-drawn rosters, churn schedules and one pump
// per (session, source) must render byte-identically however the
// cells are spread over workers.
func TestConfWorkerDeterminism(t *testing.T) {
	run := func(w int) (Result, error) {
		opts := smallConf(1)
		opts.Workers = w
		return Conf(opts)
	}
	base, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(base)
	for _, w := range []int{4, 16} {
		res, err := run(w)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderAll(res); got != want {
			t.Errorf("conf output differs between Workers=1 and Workers=%d:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s", w, want, w, got)
		}
	}
}

// The audit is held to a stricter standard than the figures — the
// issue of record is a byte-identical reproduction trace, so the
// rendered output is diffed across three worker counts, not two.
func TestAuditWorkerDeterminism(t *testing.T) {
	run := func(w int) (Result, error) {
		return Audit(AuditOptions{
			Hosts: 32, GroupSize: 8, Seeds: 4,
			Window: 60 * eventsim.Second, Settle: 45 * eventsim.Second,
			PartitionAt: 25 * eventsim.Second, PartitionFor: 15 * eventsim.Second,
			Seed: 1, Workers: w,
		})
	}
	base, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	if n := base.(*AuditResult).ViolationCount(); n != 0 {
		t.Fatalf("the audit found %d violations", n)
	}
	want := renderAll(base)
	for _, w := range []int{4, 16} {
		res, err := run(w)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderAll(res); got != want {
			t.Errorf("audit output differs between Workers=1 and Workers=%d:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s", w, want, w, got)
		}
	}
}

func TestAblationsWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep is slow; covered by the long run")
	}
	checkGolden(t, "ablations", assertWorkerInvariant(t, func(w int) (Result, error) {
		return Ablations(AblationOptions{Hosts: 300, GroupSize: 10, Runs: 3, Seed: 1, Workers: w})
	}))
}
