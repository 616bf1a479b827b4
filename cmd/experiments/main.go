// Command experiments regenerates the paper's evaluation tables and
// figures. Each figure prints as an aligned text table (optionally
// also CSV files) whose rows/series correspond to what the paper
// plots; the note under each table records the paper's expected shape.
//
// Usage:
//
//	experiments -fig all                 # everything, full size
//	experiments -fig 8 -runs 5           # Figure 8 with 5 runs/size
//	experiments -fig 10 -seed 7          # Figure 10, different seed
//	experiments -fig 4 -csv out/         # also write CSV files
//	experiments -fig all -workers 4      # bound the worker pool
//	experiments -fig load -hosts 300     # a study at another pool size
//	experiments -fig scale -benchjson f  # one study's bench trajectory
//
// -hosts sizes the pool of every study that has one; left at 0 each
// study runs its own default: 1200 hosts for figures 4, 5, 8, 10, qos
// and ablations, 8000 for load, stream and conf, 96 for chaos, 48 for
// audit, a 128-node ring for churn. scale runs only the given size
// instead of its 1200..100000 sweep; somo and obs ignore it. -runs is
// the repetitions per point of figures 8 (default 20) and 10 (5), qos
// and ablations (10), and the number of seeds audit sweeps (20); the
// other studies ignore it. -benchjson takes exactly one of scale, load,
// stream, conf.
//
// Experiments run on a bounded worker pool (-workers, default
// runtime.NumCPU()); all randomness is drawn sequentially before the
// fan-out, so the output is byte-identical for any worker count.
//
// Figures: 4 (coordinates), 5 (bandwidth), 8 (single-session ALM),
// 10 (multi-session market scheduling), somo (Section 3.2 aggregation
// study), churn (SOMO mass-crash recovery), chaos (fault-injected
// self-healing ALM session), ablations (design-choice studies), load
// (control-plane soak: admission control, shedding and preemption
// damping under sustained arrivals; opt-in like obs/scale/audit),
// stream (chunk-level media delivery over the planned trees: bitrate
// ladder, live vs VoD deadlines, churn and mesh-pull recovery,
// delivered bitrate vs the member-only capacity bound; opt-in),
// conf (multi-source conferencing: M trees per session against one
// shared capacity ledger, per-source delivery vs the shared
// member-only bound, market competition from broadcasts, churn with
// restarted sources taken back by Scheduler.Rejoin; opt-in).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"p2ppool/internal/eventsim"
	"p2ppool/internal/experiments"
)

var (
	fig     = flag.String("fig", "all", "which figures to regenerate, comma-separated: "+figNames())
	seed    = flag.Int64("seed", 1, "experiment seed (same seed => identical output)")
	runs    = flag.Int("runs", 0, "repetitions per point for figures 8, 10, qos and ablations, seeds swept for audit (0 = each study's default: 20, 5, 10, 10; audit 20); ignored by: 4, 5, somo, churn, chaos, obs, scale, load, stream, conf")
	hosts   = flag.Int("hosts", 0, "pool size (0 = each study's default: 1200 for 4, 5, 8, 10, qos, ablations; 8000 for load, stream, conf; 96 for chaos; 48 for audit; 128 ring nodes for churn); scale runs only this size instead of its sweep; ignored by: somo, obs")
	csvDir  = flag.String("csv", "", "also write each table as CSV into this directory")
	workers = flag.Int("workers", runtime.NumCPU(), "worker-pool size; output is identical for any value")
	tracing = flag.Int("trace", 0, "print the last N hop-level trace events (obs figure only)")

	cpuProf      = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf      = flag.String("memprofile", "", "write a heap profile to this file on exit")
	benchJSON    = flag.String("benchjson", "", "append the study's bench trajectory to this JSON file (existing runs are kept); enables per-cell wall-clock measurement; needs -fig to name exactly one of scale, load, stream, conf")
	benchLabel   = flag.String("bench-label", "dev", "label for the bench run appended to -benchjson (a run with the same label is replaced)")
	scaleRT      = flag.Int("scale-runtime", 0, "scale figure: simulated seconds per ring (0 = default 60)")
	loadRT       = flag.Int("load-runtime", 0, "load figure: simulated seconds per cell (0 = default 600)")
	streamChunks = flag.Int("stream-chunks", 0, "stream figure: chunks per run (0 = default 45)")
	confChunks   = flag.Int("conf-chunks", 0, "conf figure: chunks per source (0 = default 30)")
)

// study is one -fig entry.
type study struct {
	// names are the -fig values that select the study.
	names []string
	// inAll marks the classic figure set "-fig all" regenerates. The
	// later studies are opt-in by name so that set stays byte-identical
	// run to run.
	inAll bool
	// title labels the study's progress lines on stderr.
	title string
	run   func() (experiments.Result, error)
}

// studies is every figure the command can regenerate, in the order
// their tables print whatever order -fig names them in.
var studies = []study{
	{[]string{"4"}, true, "figure 4", func() (experiments.Result, error) {
		return experiments.Fig4(experiments.Fig4Options{Hosts: *hosts, Seed: *seed, Workers: *workers})
	}},
	{[]string{"5"}, true, "figure 5", func() (experiments.Result, error) {
		return experiments.Fig5(experiments.Fig5Options{Hosts: *hosts, Seed: *seed, Workers: *workers})
	}},
	{[]string{"8"}, true, "figure 8", func() (experiments.Result, error) {
		return experiments.Fig8(experiments.Fig8Options{Hosts: *hosts, Runs: *runs, Seed: *seed, Workers: *workers})
	}},
	{[]string{"10", "10a", "10b"}, true, "figure 10", func() (experiments.Result, error) {
		return experiments.Fig10(experiments.Fig10Options{Hosts: *hosts, Runs: *runs, Seed: *seed, Workers: *workers})
	}},
	{[]string{"somo"}, true, "somo study", func() (experiments.Result, error) {
		return experiments.SOMOExperiment(experiments.SOMOOptions{Seed: *seed, Workers: *workers})
	}},
	{[]string{"qos"}, true, "qos comparison", func() (experiments.Result, error) {
		return experiments.QoS(experiments.QoSOptions{Hosts: *hosts, Runs: *runs, Seed: *seed, Workers: *workers})
	}},
	{[]string{"churn"}, true, "churn study", func() (experiments.Result, error) {
		return experiments.Churn(experiments.ChurnOptions{Nodes: *hosts, Seed: *seed, Workers: *workers})
	}},
	{[]string{"chaos"}, true, "chaos study", func() (experiments.Result, error) {
		return experiments.Chaos(experiments.ChaosOptions{Hosts: *hosts, Seed: *seed, Workers: *workers})
	}},
	{[]string{"ablations"}, true, "ablations", func() (experiments.Result, error) {
		return experiments.Ablations(experiments.AblationOptions{Hosts: *hosts, Runs: *runs, Seed: *seed, Workers: *workers})
	}},
	{[]string{"obs"}, false, "obs study", func() (experiments.Result, error) {
		return experiments.Obs(experiments.ObsOptions{Seed: *seed, Workers: *workers, TraceTail: *tracing})
	}},
	{[]string{"audit"}, false, "invariant audit", func() (experiments.Result, error) {
		return experiments.Audit(experiments.AuditOptions{Hosts: *hosts, Seeds: *runs, Seed: *seed, Workers: *workers})
	}},
	{[]string{"scale"}, false, "scale study", func() (experiments.Result, error) {
		opts := experiments.ScaleOptions{
			Seed:    *seed,
			Workers: *workers,
			Runtime: eventsim.Time(*scaleRT) * eventsim.Second,
			Bench:   *benchJSON != "",
		}
		if *hosts > 0 {
			// -hosts caps the sweep for smoke runs (e.g. CI at 1200).
			opts.Sizes = []int{*hosts}
		}
		return experiments.Scale(opts)
	}},
	{[]string{"load"}, false, "load study", func() (experiments.Result, error) {
		return experiments.Load(experiments.LoadOptions{
			Hosts:   *hosts,
			Seed:    *seed,
			Workers: *workers,
			Window:  eventsim.Time(*loadRT) * eventsim.Second,
			Bench:   *benchJSON != "",
		})
	}},
	{[]string{"stream"}, false, "stream study", func() (experiments.Result, error) {
		return experiments.Stream(experiments.StreamOptions{
			Hosts: *hosts, Chunks: *streamChunks, Seed: *seed, Workers: *workers, Bench: *benchJSON != "",
		})
	}},
	{[]string{"conf"}, false, "conf study", func() (experiments.Result, error) {
		return experiments.Conf(experiments.ConfOptions{
			Hosts: *hosts, Chunks: *confChunks, Seed: *seed, Workers: *workers, Bench: *benchJSON != "",
		})
	}},
}

// figNames lists every valid -fig value: the classic set and "all",
// then the opt-in studies.
func figNames() string {
	var classic, optIn []string
	for _, st := range studies {
		if st.inAll {
			classic = append(classic, st.names...)
		} else {
			optIn = append(optIn, st.names...)
		}
	}
	return strings.Join(classic, ", ") + ", all; not part of all: " + strings.Join(optIn, ", ")
}

// selectStudies resolves a comma-separated -fig value to the studies it
// names, once each and in table order. Any name the table does not know
// fails the whole selection, so a typo cannot silently drop a figure.
func selectStudies(fig string) ([]study, error) {
	picked := make([]bool, len(studies))
	var unknown []string
	for _, name := range strings.Split(fig, ",") {
		found := false
		for i, st := range studies {
			if (name == "all" && st.inAll) || slices.Contains(st.names, name) {
				picked[i], found = true, true
			}
		}
		if !found {
			unknown = append(unknown, strconv.Quote(name))
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown figure %s (want %s)", strings.Join(unknown, ", "), figNames())
	}
	var out []study
	for i, st := range studies {
		if picked[i] {
			out = append(out, st)
		}
	}
	return out, nil
}

// benchAppender is a result with a bench trajectory: the scale, load,
// stream and conf studies.
type benchAppender interface {
	AppendBenchJSON(existing []byte, label string) ([]byte, error)
}

// writeBench appends res to the -benchjson file as a run labeled
// -bench-label, keeping the runs already there.
func writeBench(res experiments.Result) error {
	b, ok := res.(benchAppender)
	if !ok {
		return fmt.Errorf("no bench trajectory to write to %s (scale, load, stream and conf have one)", *benchJSON)
	}
	existing, err := os.ReadFile(*benchJSON)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	out, err := b.AppendBenchJSON(existing, *benchLabel)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*benchJSON, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (run %q)\n", *benchJSON, *benchLabel)
	return nil
}

func main() {
	flag.Parse()
	os.Exit(run())
}

// run is the command behind the exit code: main's only os.Exit comes
// after run's deferred profile writers have flushed, so a study error
// or an invariant violation — the runs one most wants to profile —
// still leaves complete -cpuprofile and -memprofile files.
func run() int {
	chosen, err := selectStudies(*fig)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	// One bench file holds one study's schema, so a second study's write
	// is bound to fail — after both have run.
	if *benchJSON != "" && len(chosen) != 1 {
		fmt.Fprintf(os.Stderr, "-benchjson holds one study's trajectory; -fig %s selects %d studies\n", *fig, len(chosen))
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		// Deferred in this order so the profile is flushed before the
		// file closes (defers run last-in-first-out).
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	exitCode := 0
	var results []experiments.Result
	for _, st := range chosen {
		fmt.Fprintf(os.Stderr, "running %s...\n", st.title)
		start := time.Now()
		res, err := st.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", st.title, err)
			return 1
		}
		if *benchJSON != "" {
			// The run is done and may have taken minutes: a bench file
			// that cannot be written fails the command after its tables
			// have printed, not instead of them.
			if err := writeBench(res); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", st.title, err)
				exitCode = 1
			}
		}
		// audit, load, stream and conf sweep invariants; a violation
		// fails the command after its tables have printed.
		if v, ok := res.(interface{ ViolationCount() int }); ok {
			if n := v.ViolationCount(); n > 0 {
				fmt.Fprintf(os.Stderr, "%s: %d invariant violation(s)\n", st.names[0], n)
				exitCode = 1
			}
		}
		fmt.Fprintf(os.Stderr, "%s done in %.2fs\n", st.title, time.Since(start).Seconds())
		results = append(results, res)
	}

	for _, res := range results {
		for _, tab := range res.Tables() {
			fmt.Println(tab.String())
			if *csvDir != "" {
				name := sanitize(tab.Title) + ".csv"
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
				path := filepath.Join(*csvDir, name)
				if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			}
		}
	}
	return exitCode
}

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == ':' || r == '/':
			b.WriteByte('_')
		}
	}
	return b.String()
}
