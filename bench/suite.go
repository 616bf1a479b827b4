package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// provenance is the stamp every result file carries, so that numbers
// from different commits, machines or sizes are never compared blind.
type provenance struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Workers    int     `json:"workers"`
	Shards     int     `json:"shards"`
	Seed       int64   `json:"seed"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds"`
	Sizes      sizes   `json:"sizes"`
}

func stamp(seed int64, reps int, seconds float64, workers int) provenance {
	sz := frozenSizes()
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: "unknown", Workers: workers, Shards: sz.Ring.Shards, Seed: seed, Reps: reps, Seconds: seconds, Sizes: sz,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			p.Dirty = len(bytes.TrimSpace(st)) > 0
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// suiteFile is what -out writes and `bench compare` reads.
type suiteFile struct {
	Schema     string       `json:"schema"`
	Provenance provenance   `json:"provenance"`
	Runs       []*runResult `json:"runs"`
}

const suiteSchema = "p2ppool-bench/v1"

// child runs one workload in a fresh process of this same binary — so
// peak_rss_mb is that workload's alone — and parses its detail line.
func child(name string, seed int64, seconds float64, traced bool, spans string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
	if traced {
		args = append(args, "-trace", "1")
		if spans != "" {
			args = append(args, "-spans", spans)
		}
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var res *runResult
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "detail: "); ok {
			res = new(runResult)
			if err := json.Unmarshal([]byte(rest), res); err != nil {
				return nil, fmt.Errorf("%s: parsing result: %w", name, err)
			}
		}
	}
	if res == nil {
		return nil, fmt.Errorf("%s: run produced no result (%v)", name, runErr)
	}
	return res, nil
}

// suiteMain runs every workload in `reps` fresh processes (plus one
// traced process each when asked), prints every metric by name, checks
// that the exact metrics repeat across processes, and writes the result
// file. It returns the process exit code.
func suiteMain(seed int64, seconds float64, reps int, traced bool, spans, out string, workers int) int {
	if reps < 1 {
		reps = 1
	}
	file := suiteFile{Schema: suiteSchema, Provenance: stamp(seed, reps, seconds, workers)}
	bad := 0
	allSpans := map[string]json.RawMessage{}
	for _, w := range workloads {
		var runs []*runResult
		n := reps
		if traced {
			n++
		}
		for i := 0; i < n; i++ {
			withTrace := traced && i == reps
			tmp := ""
			if withTrace && spans != "" {
				tmp = spans + "." + w.name + ".tmp"
			}
			res, err := child(w.name, seed, seconds, withTrace, tmp)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				bad++
				continue
			}
			if tmp != "" {
				if data, err := os.ReadFile(tmp); err == nil {
					allSpans[w.name] = data
				}
				os.Remove(tmp)
			}
			runs = append(runs, res)
			file.Runs = append(file.Runs, res)
		}
		bad += printWorkload(w.name, runs)
	}
	if spans != "" && len(allSpans) > 0 {
		if err := writeJSON(spans, allSpans); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			bad++
		}
	}
	if out != "" {
		if err := writeJSON(out, file); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("FAIL: %d check(s) did not hold\n", bad)
		return 1
	}
	fmt.Println("ok: every correctness check held")
	return 0
}

// printWorkload prints one workload's metrics over its processes and
// returns how many checks failed: the workload's own, plus any exact
// metric that did not repeat from one process to the next.
func printWorkload(name string, runs []*runResult) int {
	if len(runs) == 0 {
		return 1
	}
	bad := 0
	first := runs[0]
	fmt.Printf("== %s: %d processes x %d repetitions, seed %d, ops %d, refused %d, eventsim.events %d, result_hash %s\n",
		name, len(runs), first.Reps, first.Seed, first.Ops, first.Refused, first.Events, first.ResultHash)
	for _, r := range runs {
		for _, f := range r.Failed {
			fmt.Printf("  FAILED CHECK: %s\n", f)
			bad++
		}
		if r.ResultHash != first.ResultHash || r.Events != first.Events {
			fmt.Printf("  FAILED CHECK: determinism: a fresh process gave result_hash %s / %d events, the first %s / %d\n",
				r.ResultHash, r.Events, first.ResultHash, first.Events)
			bad++
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), metricDef{Name: "run.wall_s", Unit: "s", Better: "lower"}) {
		var xs []float64
		for _, r := range runs {
			if s, ok := r.Measured[m.Name]; ok {
				xs = append(xs, s.Median)
			}
		}
		if len(xs) > 0 {
			s := sampleOf(xs)
			if len(runs) == 1 {
				s = first.Measured[m.Name] // one process: its repetitions are the sample
			}
			gate := fmt.Sprintf("bound %3.0f%%", m.Bound*100)
			if m.Bound == 0 {
				gate = "not gated "
			}
			fmt.Printf("  %-20s %12.6g %-5s %-6s %s  [q1 %.6g q3 %.6g n %d]\n", m.Name, s.Median, m.Unit, m.Better, gate, s.Q1, s.Q3, s.N)
		} else if v, ok := first.Exact[m.Name]; ok {
			fmt.Printf("  %-20s %12.6g %-5s %-6s exact at one seed\n", m.Name, v, m.Unit, m.Better)
		}
	}
	for _, m := range quality {
		if v, ok := first.Exact[m.Name]; ok {
			note := ""
			switch m.Name {
			case "admit_p99_ms":
				note = fmt.Sprintf("  [p%g of %g admitted; median %.6g]", first.Exact["admit_tail_pct"], first.Exact["sched.admitted"], first.Exact["admit_p50_ms"])
				if first.Exact["admit_tail_pct"] == 0 {
					note = fmt.Sprintf("  [the median: %g admitted support no tail percentile]", first.Exact["sched.admitted"])
				}
			case "delivered_kbps":
				note = fmt.Sprintf("  [member-only capacity bound %.1f kbps]", first.Exact["capacity_bound_kbps"])
			}
			fmt.Printf("  %-20s %12.6g %-5s %-6s exact%s\n", m.Name, v, m.Unit, m.Better, note)
		}
	}
	for _, r := range runs {
		if r.TracedReps == 0 {
			continue
		}
		fmt.Printf("  per layer (traced process):\n")
		for _, m := range perLayer {
			if v, ok := r.value(m.Name); ok {
				fmt.Printf("    %-30s %14.6g %s\n", m.Name, v, m.Unit)
			}
		}
	}
	return bad
}
