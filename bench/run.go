package main

import (
	"fmt"
	"runtime"
	"sort"
)

// sample is a time or memory metric over one run's repetitions.
type sample struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func sampleOf(xs []float64) sample {
	q1, q2, q3 := quantiles(xs)
	return sample{Median: q2, Q1: q1, Q3: q3, N: len(xs)}
}

// runResult is one process's measurement of one workload at one seed.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Reps counts untraced repetitions, TracedReps traced ones.
	Reps       int `json:"reps"`
	TracedReps int `json:"traced_reps"`
	// Ops and Refused are per repetition (identical across them).
	Ops     int64 `json:"ops"`
	Refused int64 `json:"refused"`
	// Failed lists every correctness check that did not hold.
	Failed     []string `json:"failed,omitempty"`
	ResultHash string   `json:"result_hash"`
	Events     uint64   `json:"eventsim.events"`
	// Measured are the time and memory metrics (setup_s, cpu_s,
	// allocs_per_op, peak_rss_mb) with run.wall_s beside them.
	Measured map[string]sample `json:"measured"`
	// Exact are the deterministic metrics: quality results and the
	// layers' counters.
	Exact map[string]float64 `json:"exact"`
	// Layers are the traced run's per-layer self seconds and the run.*
	// context metrics; empty when no traced repetition ran.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []lifeSpan         `json:"-"`
}

// measure runs workload w at one seed: fresh worlds are built and run
// until the timed sections add up to `seconds` (at least two, so every
// run also checks that a repeated seed repeats its outputs). With
// traced set, untraced and traced repetitions alternate: end-to-end
// numbers always come from the untraced ones.
func measure(w *workload, seed int64, seconds float64, traced bool, sz sizes, workers int) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: seed, Measured: map[string]sample{}, Exact: map[string]float64{}}
	var setup, cpu, wall, allocs, tracedCPU []float64
	layerSamples := map[string][]float64{}
	var first *outcome
	spent := 0.0
	for rep := 0; spent < seconds || rep < 2; rep++ {
		withTrace := traced && rep%2 == 1
		runtime.GC()
		e := newEnv(seed, sz, workers, withTrace)
		o, err := w.run(e)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		o.seal()
		spent += e.timed.WallS
		if first == nil {
			first = o
		} else if d := differs(first, o); d != "" {
			what := "repeated"
			if withTrace {
				what = "traced"
			}
			res.Failed = append(res.Failed, fmt.Sprintf("determinism: %s repetition %d differs from the first: %s", what, rep, d))
		}
		for _, msg := range o.errs {
			res.Failed = append(res.Failed, msg)
		}
		if withTrace {
			res.TracedReps++
			tracedCPU = append(tracedCPU, e.timed.CPUS)
			for name, v := range layerSeconds(e) {
				layerSamples[name] = append(layerSamples[name], v)
			}
			res.Spans = e.life.spans
			continue
		}
		res.Reps++
		setup = append(setup, e.setupS)
		cpu = append(cpu, e.timed.CPUS)
		wall = append(wall, e.timed.WallS)
		allocs = append(allocs, float64(e.timed.Mallocs)/float64(max(o.ops, 1)))
		layerSamples["run.gc_pause_s"] = append(layerSamples["run.gc_pause_s"], e.timed.GCPauseS)
		layerSamples["run.gc_cpu_s"] = append(layerSamples["run.gc_cpu_s"], e.timed.GCCPUS)
	}
	res.Failed = dedupe(res.Failed)
	res.Ops, res.Refused, res.Events = first.ops, first.refused, first.events
	res.ResultHash = fmt.Sprintf("%016x", first.hash.sum())
	for k, v := range first.exact {
		if appliesTo(k, w.name) {
			res.Exact[k] = v
		}
	}
	served := 1.0
	if first.ops > 0 {
		served = 1 - float64(first.refused)/float64(first.ops)
	} else {
		res.Failed = append(res.Failed, "workload attempted no operations")
	}
	res.Exact["served_frac"] = served
	res.Measured["setup_s"] = sampleOf(setup)
	res.Measured["cpu_s"] = sampleOf(cpu)
	res.Measured["allocs_per_op"] = sampleOf(allocs)
	res.Measured["run.wall_s"] = sampleOf(wall)
	rss := peakRSSMB()
	res.Measured["peak_rss_mb"] = sample{Median: rss, Q1: rss, Q3: rss, N: 1}
	res.Layers = map[string]float64{"run.wall_s": median(wall)}
	for name, xs := range layerSamples {
		res.Layers[name] = median(xs)
	}
	if len(tracedCPU) > 0 {
		res.Layers["run.traced_cpu_s"] = median(tracedCPU)
		if base := median(cpu); base > 0 {
			res.Layers["run.trace_overhead"] = median(tracedCPU)/base - 1
		}
		if plans := res.Exact["sched.plans"]; plans > 0 {
			res.Layers["sched.plan_us"] = res.Layers["sched.tick_s"] / plans * 1e6
			res.Layers["sched.lat_calls_per_plan"] = res.Layers["topology.lat_calls"] / plans
		}
	}
	return res, nil
}

// layerSeconds turns one traced repetition's accumulators into the
// per-layer `_s` metrics: self time per key over set-up and timed
// sections together, plus the timed section's self-time sum — which is
// what should account for that repetition's cpu_s.
func layerSeconds(e *env) map[string]float64 {
	out := make(map[string]float64, nKeys+2)
	sum := 0.0
	for k := key(0); k < nKeys; k++ {
		timed := e.tr.acc[k].Self.Seconds()
		sum += timed
		if k == kHarness {
			out["run.harness_s"] = timed
			continue
		}
		out[keyName[k]+"_s"] = timed + e.setupAcc[k].Self.Seconds()
	}
	out["run.self_sum_s"] = sum
	out["topology.lat_calls"] = float64(e.latCalls)
	return out
}

// differs names the first deterministic output on which two repetitions
// of one seed disagree ("" when they agree).
func differs(a, b *outcome) string {
	if a.events != b.events {
		return fmt.Sprintf("eventsim.events %d vs %d", a.events, b.events)
	}
	if a.ops != b.ops || a.refused != b.refused {
		return fmt.Sprintf("ops/refused %d/%d vs %d/%d", a.ops, a.refused, b.ops, b.refused)
	}
	names := make([]string, 0, len(a.exact))
	for n := range a.exact {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if a.exact[n] != b.exact[n] {
			return fmt.Sprintf("%s %v vs %v", n, a.exact[n], b.exact[n])
		}
	}
	if a.hash.sum() != b.hash.sum() {
		return fmt.Sprintf("result_hash %016x vs %016x", a.hash.sum(), b.hash.sum())
	}
	return ""
}

func dedupe(xs []string) []string {
	seen := make(map[string]bool, len(xs))
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// value looks a metric up in a run's result, wherever it lives; ok is
// false when the run has no such metric.
func (r *runResult) value(name string) (float64, bool) {
	if s, ok := r.Measured[name]; ok {
		return s.Median, true
	}
	if v, ok := r.Exact[name]; ok {
		return v, true
	}
	v, ok := r.Layers[name]
	return v, ok
}

// contractLine is the driver's result object: with trace off the
// end-to-end metrics, with trace on every per-layer metric (0 where the
// workload has none).
func (r *runResult) contractLine(traced bool) map[string]interface{} {
	defs := endToEnd
	if traced {
		defs = tracedMetrics()
	}
	metrics := make(map[string]interface{}, len(defs))
	for _, m := range defs {
		v, _ := r.value(m.Name)
		metrics[m.Name] = map[string]interface{}{"value": v, "unit": m.Unit}
	}
	return map[string]interface{}{
		"correct":   len(r.Failed) == 0,
		"attempted": r.Ops,
		"failed":    len(r.Failed),
		"metrics":   metrics,
	}
}
