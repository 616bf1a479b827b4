// Command bench is the repository's benchmark: five named workloads,
// end-to-end and per-layer metrics, and a traced run, all measured from
// outside the layers by timing calls into their exported functions.
//
//	go run ./bench                          every workload, -reps fresh processes each
//	go run ./bench -workload ring -seed 3   one measured run in this process
//	go run ./bench compare a.json b.json    apply every metric's bound to two result files
//
// See README.md in this directory for the metrics, the workloads and
// how to read the trace file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// defaultSeconds must match BENCHMARK.json's run_seconds.
const defaultSeconds = 15

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "run one workload in this process (ring, admit, plan-groups, stream, fullstack); empty runs the whole suite")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", defaultSeconds, "measure until the timed sections add up to this many seconds")
		trace   = flag.Int("trace", 0, "1 adds traced repetitions and reports the per-layer metrics")
		spans   = flag.String("spans", "", "with -trace 1, write the session-lifecycle spans and per-key accumulators to this file")
		reps    = flag.Int("reps", 3, "suite: fresh-process runs per workload")
		out     = flag.String("out", "", "suite: write the result file (with provenance) here")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	workers := runtime.NumCPU()
	if workers > 4 {
		workers = 4
	}
	if *name == "" {
		os.Exit(suiteMain(*seed, *seconds, *reps, *trace == 1, *spans, *out, workers))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := measure(w, *seed, *seconds, *trace == 1, frozenSizes(), workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if *spans != "" && res.TracedReps > 0 {
		if err := writeJSON(*spans, map[string]interface{}{"workload": res.Workload, "seed": res.Seed, "layers": res.Layers, "spans": res.Spans}); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	printWorkload(res.Workload, []*runResult{res})
	// The suite reads the full result from this line; the driver reads
	// only the last one.
	detail, _ := json.Marshal(res)
	fmt.Printf("detail: %s\n", detail)
	line, _ := json.Marshal(res.contractLine(*trace == 1))
	fmt.Printf("%s\n", line)
	if len(res.Failed) > 0 {
		os.Exit(1)
	}
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
