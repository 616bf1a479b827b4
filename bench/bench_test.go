package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"p2ppool/internal/eventsim"
	"p2ppool/internal/transport"
)

// runToy runs one repetition of a workload at toy size.
func runToy(t *testing.T, name string, seed int64, traced bool) (*env, *outcome) {
	t.Helper()
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	e := newEnv(seed, toySizes(), 2, traced)
	o, err := w.run(e)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	o.seal()
	return e, o
}

// Every workload runs clean at toy size on a seed the sizes were not
// tuned on: operations attempted, no failed check.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		if w.name == "fullstack" {
			continue // TestTraceHasNoObserverEffect runs it, twice
		}
		_, o := runToy(t, w.name, 2, false)
		if o.ops <= 0 {
			t.Errorf("%s: attempted %d operations", w.name, o.ops)
		}
		for _, msg := range o.errs {
			t.Errorf("%s: failed check: %s", w.name, msg)
		}
		// Traced, it must do exactly the same (on the ring, with a tracer
		// per concurrently running shard).
		if _, traced := runToy(t, w.name, 2, true); differs(o, traced) != "" {
			t.Errorf("%s: traced run differs from untraced: %s", w.name, differs(o, traced))
		}
	}
}

// The network decorator and the bracketing sentinels must not change
// what the system does: a traced fullstack run has the same events,
// hash and exact metrics as an untraced one — and it does record the
// layers and session lifecycles it is there for.
func TestTraceHasNoObserverEffect(t *testing.T) {
	_, plain := runToy(t, "fullstack", 2, false)
	e, traced := runToy(t, "fullstack", 2, true)
	for _, msg := range plain.errs {
		t.Errorf("failed check: %s", msg)
	}
	if plain.ops <= 0 {
		t.Fatalf("attempted %d operations", plain.ops)
	}
	if d := differs(plain, traced); d != "" {
		t.Fatalf("traced run differs from untraced: %s", d)
	}
	for _, k := range []key{kDHTHandler, kDHTTimer, kCoordsRefine, kSomoHandler, kSomoTimer, kBandwidthProbe, kBandwidthTimer, kSchedTick, kEventsimRun} {
		if e.tr.acc[k].Count == 0 {
			t.Errorf("no %s span recorded", keyName[k])
		}
	}
	if len(e.tr.stack) != 0 {
		t.Errorf("%d spans left open", len(e.tr.stack))
	}
	if len(e.life.spans) == 0 {
		t.Fatal("no session lifecycle recorded")
	}
	names := map[string]bool{}
	for i, s := range e.life.spans {
		names[s.Name] = true
		if s.Span != i {
			t.Fatalf("span %d numbered %d", i, s.Span)
		}
		if s.Parent == -1 {
			continue
		}
		if p := e.life.spans[s.Parent]; p.ID != s.ID || p.Parent != -1 {
			t.Errorf("span %d (%s, session %d) has parent %d of session %d", i, s.Name, s.ID, s.Parent, p.ID)
		}
	}
	for _, want := range []string{"session", "sched.submit", "sched.admit_wait", "dataplane.start", "dataplane.finalize"} {
		if !names[want] {
			t.Errorf("no %q span in any session lifecycle", want)
		}
	}
}

// A span's self time is its duration minus what its children covered,
// and a child's duration counts once, in its direct parent only.
func TestSelfTimeArithmetic(t *testing.T) {
	tr := newTracer()
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	push := func(k key, ms int) { tr.stack = append(tr.stack, frame{k: k, start: at(ms)}) }
	// run [0,100] { handler [10,40] { somo [20,30] }  timer [50,70] }
	push(kEventsimRun, 0)
	push(kDHTHandler, 10)
	push(kSomoHandler, 20)
	tr.endAt(at(30))
	tr.endAt(at(40))
	push(kDHTTimer, 50)
	tr.endAt(at(70))
	tr.endAt(at(100))
	ms := func(d time.Duration) int { return int(d / time.Millisecond) }
	for _, c := range []struct {
		k           key
		total, self int
	}{{kEventsimRun, 100, 50}, {kDHTHandler, 30, 20}, {kSomoHandler, 10, 10}, {kDHTTimer, 20, 20}} {
		a := tr.acc[c.k]
		if ms(a.Total) != c.total || ms(a.Self) != c.self || a.Count != 1 {
			t.Errorf("%s: total %d self %d count %d, want %d %d 1", keyName[c.k], ms(a.Total), ms(a.Self), a.Count, c.total, c.self)
		}
	}
	sum := time.Duration(0)
	for _, a := range tr.acc {
		sum += a.Self
	}
	if ms(sum) != 100 || ms(tr.rootTotal) != 100 {
		t.Errorf("self times sum to %d ms, root total %d ms, want 100 and 100", ms(sum), ms(tr.rootTotal))
	}
}

// The decorator is the network itself when there is no tracer; with one,
// handlers and timers run inside spans, and a timer belongs to the layer
// that armed it.
func TestTimedNet(t *testing.T) {
	engine := eventsim.New(1)
	sim := transport.NewSim(engine, transport.SimOptions{Latency: func(a, b int) float64 { return 1 }})
	if got := timed(sim, nil, kDHTHandler, kDHTTimer); got != transport.Network(sim) {
		t.Fatal("untraced decorator is not a pass-through")
	}
	tr := newTracer()
	net := timed(sim, tr, kDHTHandler, kDHTTimer)
	handled := 0
	net.Attach(1, func(from transport.Addr, msg transport.Message) {
		handled++
		if k, ok := tr.current(); !ok || k != kDHTHandler {
			t.Errorf("handler ran under %v", k)
		}
	})
	net.Send(0, 1, 10, "x")
	net.After(5, func() {})
	tr.span(kSomoSetup, func() { net.After(5, func() {}) })
	cancelled := net.After(5, func() { t.Error("cancelled timer fired") })
	if !cancelled() {
		t.Error("cancel did not report stopping the timer")
	}
	before := engine.Processed()
	engine.Run(0)
	if handled != 1 || engine.Processed()-before != 3 {
		t.Errorf("handled %d messages over %d events, want 1 over 3", handled, engine.Processed()-before)
	}
	for k, want := range map[key]uint64{kDHTHandler: 1, kDHTTimer: 1, kSomoTimer: 1, kSomoSetup: 1} {
		if got := tr.acc[k].Count; got != want {
			t.Errorf("%s: %d spans, want %d", keyName[k], got, want)
		}
	}
}

// The tail percentile reported is the highest with at least ten samples
// beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
	}{{50, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // unsorted on purpose
		}
		med, pct, tail, n := tailPercentile(xs)
		if pct != c.pct || n != c.n {
			t.Errorf("n=%d: percentile %g (n %d), want %g", c.n, pct, n, c.pct)
			continue
		}
		if pct == 0 {
			if tail != med {
				t.Errorf("n=%d: unsupported tail should fall back to the median", c.n)
			}
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > tail {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, pct)
		}
	}
}

// quantiles is Python's statistics.quantiles(xs, n=4).
func TestQuantilesMatchPython(t *testing.T) {
	q1, q2, q3 := quantiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quantiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("got %g %g %g, want 1 2 3", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	findMetric := func(name string) (metricDef, bool) {
		for _, m := range append(append([]metricDef(nil), endToEnd...), quality...) {
			if m.Name == name {
				return m, true
			}
		}
		t.Fatalf("no metric %q", name)
		return metricDef{}, false
	}
	cpu, _ := findMetric("cpu_s")          // lower, 25%
	served, _ := findMetric("served_frac") // higher
	steady := []float64{10, 10.1, 9.9}
	for _, c := range []struct {
		name string
		m    metricDef
		a, b []float64
		want verdict
	}{
		{"same", cpu, steady, []float64{10.05, 9.95, 10}, vWithin},
		{"slower inside the bound", cpu, steady, []float64{10.9, 11, 11.1}, vWithin},
		{"slower past the bound", cpu, steady, []float64{13.9, 14, 14.1}, vWorse},
		{"faster", cpu, steady, []float64{8, 8.1, 7.9}, vBetter},
		{"a wobble on a zero-spread baseline", cpu, []float64{10, 10, 10}, []float64{9.99, 9.99, 9.99}, vWithin},
		{"noisy baseline", cpu, []float64{8, 10, 14}, []float64{10, 10.1, 9.9}, vUnresolved},
		{"noisy but every run faster", cpu, []float64{10, 12, 15}, []float64{5, 6, 7}, vBetter},
		{"higher is better, dropped", served, []float64{0.9, 0.9, 0.9}, []float64{0.5, 0.5, 0.5}, vWorse},
		{"missing", cpu, steady, nil, vUnresolved},
	} {
		if got, note := judgeMeasured(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s (%s), want %s", c.name, got, note, c.want)
		}
	}
	slo, _ := findMetric("slo_frac")
	p99, _ := findMetric("admit_p99_ms")
	if v, _ := judgeExact(slo, 0.8, 0.8); v != vWithin {
		t.Errorf("identical exact metric: %s", v)
	}
	if v, _ := judgeExact(slo, 0.8, 0.79); v != vWorse {
		t.Errorf("lower slo_frac: %s", v)
	}
	if v, _ := judgeExact(p99, 5000, 4000); v != vBetter {
		t.Errorf("lower admit_p99_ms: %s", v)
	}

	// Whole files: one run per side, same seed and sizes.
	mk := func(cpuS, servedFrac float64, hash string) *suiteFile {
		f := &suiteFile{Schema: suiteSchema, Provenance: provenance{Seed: 1, Sizes: frozenSizes()}}
		for _, w := range workloads {
			f.Runs = append(f.Runs, &runResult{Workload: w.name, Seed: 1, Reps: 3, ResultHash: hash,
				Measured: map[string]sample{"cpu_s": {Median: cpuS, N: 3}},
				Exact:    map[string]float64{"served_frac": servedFrac}})
		}
		return f
	}
	worse := 0
	for _, r := range compareFiles(mk(10, 0.9, "aa"), mk(10, 0.8, "aa")) {
		if r.Verdict == vWorse {
			worse++
			if r.Metric != "served_frac" {
				t.Errorf("unexpected worse row %+v", r)
			}
		}
	}
	if worse != len(workloads) {
		t.Errorf("a lower served_frac was flagged on %d workloads, want %d", worse, len(workloads))
	}
	for _, r := range compareFiles(mk(10, 0.9, "aa"), mk(10, 0.9, "bb")) {
		if r.Metric == "result_hash" && r.Verdict != vUnresolved {
			t.Errorf("changed result_hash reported as %s", r.Verdict)
		}
		if r.Verdict == vWorse {
			t.Errorf("unexpected worse row %+v", r)
		}
	}
	other := mk(10, 0.8, "aa")
	other.Provenance.Seed = 2
	for _, r := range compareFiles(mk(10, 0.9, "aa"), other) {
		if r.Metric == "served_frac" && r.Verdict != vUnresolved {
			t.Errorf("exact metric compared across seeds: %s", r.Verdict)
		}
	}
}

// BENCHMARK.json is the driver's copy of this package's tables; they
// must not drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s / %s", i, f.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics listed, %d defined", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, m)
			}
			if bounded && (g.Bound == nil || math.Abs(*g.Bound-m.Bound) > 1e-12) {
				t.Errorf("%s %s: bound differs from %g", kind, m.Name, m.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.Name)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd, true)
	same("per_layer", f.PerLayer, tracedMetrics(), false)
}
