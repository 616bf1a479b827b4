package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
)

// verdict is compare's reading of one (metric, workload) pairing.
type verdict string

const (
	vBetter     verdict = "better"
	vWithin     verdict = "within bound"
	vWorse      verdict = "worse"
	vUnresolved verdict = "unresolved"
)

// row is one line of compare's output.
type row struct {
	Workload string
	Metric   string
	A, B     float64
	Verdict  verdict
	Note     string
}

// resolution is the smallest relative gain compare will call "better":
// a baseline whose runs happen to agree to five digits has a spread of
// zero, and a 0.01% wobble in the allocation count is not a gain.
const resolution = 0.005

// judgeMeasured compares a time or memory metric: a and b are the
// per-process medians of the baseline and the candidate. The change is
// worse when the candidate's median is worse than the baseline's by more
// than the bound, better when it wins by more than the baseline's own
// quartile spread, and unresolved when either side's spread is wider
// than the bound — unless every candidate reading beats every baseline
// reading, which needs no statistics.
func judgeMeasured(m metricDef, a, b []float64) (verdict, string) {
	if len(a) == 0 || len(b) == 0 {
		return vUnresolved, "missing on one side"
	}
	sign := 1.0 // positive rel = worse
	if m.Better == "higher" {
		sign = -1
	}
	aq1, am, aq3 := quantiles(a)
	bq1, bm, bq3 := quantiles(b)
	if am == 0 {
		return vUnresolved, "baseline median is 0"
	}
	rel := sign * (bm - am) / am
	spreadA, spreadB := (aq3-aq1)/am, (bq3-bq1)/am
	note := fmt.Sprintf("%+.1f%%, spread a %.1f%% b %.1f%%, n %d/%d", 100*(bm-am)/am, 100*spreadA, 100*spreadB, len(a), len(b))
	if spreadA > m.Bound || spreadB > m.Bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return vBetter, note + ", every run better"
		}
		return vUnresolved, note + ", spread wider than bound"
	}
	switch {
	case rel > m.Bound:
		return vWorse, note
	case rel < -spreadA && rel < -resolution:
		return vBetter, note
	}
	return vWithin, note
}

// judgeExact compares a deterministic metric at one seed: any move is a
// change in behaviour.
func judgeExact(m metricDef, a, b float64) (verdict, string) {
	switch {
	case a == b:
		return vWithin, "identical"
	case (b < a) == (m.Better == "lower"):
		return vBetter, "exact metric moved"
	}
	return vWorse, "exact metric moved"
}

// compareFiles applies every metric's bound and direction per (metric,
// workload) and returns one row per pairing.
func compareFiles(a, b *suiteFile) []row {
	var rows []row
	sameInputs := a.Provenance.Seed == b.Provenance.Seed && reflect.DeepEqual(a.Provenance.Sizes, b.Provenance.Sizes)
	group := func(f *suiteFile, name string) (untraced []*runResult) {
		for _, r := range f.Runs {
			if r.Workload == name && r.TracedReps == 0 {
				untraced = append(untraced, r)
			}
		}
		return untraced
	}
	for _, w := range workloads {
		ra, rb := group(a, w.name), group(b, w.name)
		if len(ra) == 0 || len(rb) == 0 {
			rows = append(rows, row{Workload: w.name, Metric: "*", Verdict: vUnresolved, Note: "workload missing on one side"})
			continue
		}
		exact := func(m metricDef) {
			va, oka := ra[0].Exact[m.Name]
			vb, okb := rb[0].Exact[m.Name]
			if !oka && !okb {
				return
			}
			r := row{Workload: w.name, Metric: m.Name, A: va, B: vb}
			if !sameInputs {
				r.Verdict, r.Note = vUnresolved, "seed or sizes differ: exact metrics are not comparable"
			} else {
				r.Verdict, r.Note = judgeExact(m, va, vb)
			}
			rows = append(rows, r)
		}
		for _, m := range endToEnd {
			if _, measured := ra[0].Measured[m.Name]; !measured {
				exact(m)
				continue
			}
			var xa, xb []float64
			for _, r := range ra {
				xa = append(xa, r.Measured[m.Name].Median)
			}
			for _, r := range rb {
				xb = append(xb, r.Measured[m.Name].Median)
			}
			v, note := judgeMeasured(m, xa, xb)
			rows = append(rows, row{Workload: w.name, Metric: m.Name, A: median(xa), B: median(xb), Verdict: v, Note: note})
		}
		for _, m := range quality {
			exact(m)
		}
		// Not gated: a change that claims only cpu_s must leave these
		// alone, a change to behaviour will not.
		output := func(name, va, vb string) {
			r := row{Workload: w.name, Metric: name, Verdict: vWithin, Note: "identical: " + va}
			if va != vb {
				r.Verdict, r.Note = vUnresolved, fmt.Sprintf("%s -> %s: outputs changed", va, vb)
			}
			rows = append(rows, r)
		}
		output("result_hash", ra[0].ResultHash, rb[0].ResultHash)
		output("eventsim.events", fmt.Sprint(ra[0].Events), fmt.Sprint(rb[0].Events))
	}
	return rows
}

func readSuite(path string) (*suiteFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != suiteSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, suiteSchema)
	}
	return &f, nil
}

// compareMain is `bench compare a.json b.json`: a is the baseline. It
// exits nonzero on any worse pairing (a lower served_frac is one).
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare baseline.json candidate.json")
		return 2
	}
	a, err := readSuite(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	b, err := readSuite(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	pa, pb := a.Provenance, b.Provenance
	fmt.Printf("baseline  %s commit %.12s dirty=%v %s %s nproc=%d seed=%d reps=%d\n", args[0], pa.Commit, pa.Dirty, pa.GoVersion, pa.CPUModel, pa.NProc, pa.Seed, pa.Reps)
	fmt.Printf("candidate %s commit %.12s dirty=%v %s %s nproc=%d seed=%d reps=%d\n", args[1], pb.Commit, pb.Dirty, pb.GoVersion, pb.CPUModel, pb.NProc, pb.Seed, pb.Reps)
	if pa.CPUModel != pb.CPUModel || pa.NProc != pb.NProc || pa.GoVersion != pb.GoVersion {
		fmt.Println("note: machine or toolchain differs — time metrics compare two machines, not two commits")
	}
	rows := compareFiles(a, b)
	counts := map[verdict]int{}
	fmt.Printf("%-12s %-20s %14s %14s  %-13s %s\n", "workload", "metric", "baseline", "candidate", "verdict", "note")
	for _, r := range rows {
		counts[r.Verdict]++
		fmt.Printf("%-12s %-20s %14.6g %14.6g  %-13s %s\n", r.Workload, r.Metric, r.A, r.B, r.Verdict, r.Note)
	}
	keys := []string{}
	for v, n := range counts {
		keys = append(keys, fmt.Sprintf("%s %d", v, n))
	}
	sort.Strings(keys)
	fmt.Println(keys)
	if counts[vWorse] > 0 {
		return 1
	}
	return 0
}
