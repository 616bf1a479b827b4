package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"p2ppool/internal/core"
	"p2ppool/internal/dht"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/somo"
	"p2ppool/internal/topology"
	"p2ppool/internal/transport"
)

// ScaleOptions parameterizes the scale study: the same protocol stack
// the paper evaluates at 1,200 hosts, swept nearly two orders of
// magnitude up. The point is the paper's self-scaling claim — per-node
// overhead is O(log N) — demonstrated rather than asserted: paper-shape
// metrics (SOMO gather staleness, fig-8-style ALM improvement) must
// stay flat while N grows, and the harness's own cost (events/sec,
// allocs, memory) must not degrade super-linearly.
//
// Unlike the classic figures, the router substrate scales with the
// pool: hosts:routers stays ≈ 2:1 as in the paper's 1200:600 setup, so
// at N=100,000 there are ~50,000 routers — the regime where an eager
// all-pairs latency table (20 GB) is impossible and the topology's
// coordinate oracle takes over. Each row reports which oracle served
// it and the oracle's measured error against exact Dijkstra.
type ScaleOptions struct {
	// Sizes are the pool sizes to sweep (default 1200, 3000, 6000,
	// 12000, 30000, 100000).
	Sizes []int
	// Runtime is how long each ring runs (default 60 simulated
	// seconds — 12 SOMO reporting intervals, enough for records to
	// propagate depth+1 levels with margin).
	Runtime eventsim.Time
	// GroupSize is the ALM session size for the improvement probe
	// (default 100, the mid-size group of Figure 8).
	GroupSize int
	Seed      int64
	// Workers bounds intra-cell parallelism: the topology build, the
	// coordinate solves and the sharded event loop. Cells always run
	// one at a time (each cell saturates the machine on its own, and
	// sequential cells keep wall/alloc/RSS readings honest). The table
	// output is identical for any worker count.
	Workers int
	// Bench additionally collects wall-clock, allocation, events/sec
	// and memory measurements per cell. The bench fields never appear
	// in Tables() output — they go to the bench JSON — so determinism
	// contracts are unaffected.
	Bench bool
}

func (o ScaleOptions) withDefaults() ScaleOptions {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{1200, 3000, 6000, 12000, 30000, 100000}
	}
	if o.Runtime <= 0 {
		o.Runtime = 60 * eventsim.Second
	}
	if o.GroupSize <= 0 {
		o.GroupSize = 100
	}
	return o
}

// scaleShards is the ring's structural shard count. It partitions
// hosts across engines, so — like a seed — it is part of the study's
// identity and never derived from Workers: the output is byte-identical
// whether the 8 shards execute on 1 core or 16, and a different count
// would produce different (equally valid) figures. AppendBenchJSON
// records it per run and refuses to mix counts within one bench file.
const scaleShards = 8

// scaleTopology builds cell n's underlay config: the paper's constants
// with the stub tier widened so hosts:routers stays ≈ 2:1 (the paper's
// 1200:600). The 1200-host cell keeps the exact paper substrate.
func scaleTopology(n int, opts ScaleOptions) topology.Config {
	top := paperTopology(n, opts.Seed, opts.Workers)
	// Routers = 24 transit + 144·StubDomainsPerTransit stub; SDPT =
	// n/288 keeps ≈ n/2 routers (1200 → the default 4, 100000 → 347,
	// i.e. ~50k routers).
	if sdpt := n / 288; sdpt > top.StubDomainsPerTransit {
		top.StubDomainsPerTransit = sdpt
	}
	return top
}

// ScaleRow is one pool size's measurements. The first group of fields
// is deterministic (a pure function of the seed) and appears in
// Tables(); the Bench* fields are wall-clock measurements filled only
// when ScaleOptions.Bench is set, reported via the bench JSON.
type ScaleRow struct {
	Hosts int
	// Routers is the underlay size; it scales with Hosts (≈ 2:1).
	Routers int
	// Oracle is the latency-oracle implementation the cell resolved to
	// ("exact" up to 2048 routers, "coords" beyond).
	Oracle string
	// OracleErrP50/P90 are the oracle's relative latency error vs exact
	// single-source Dijkstra on sampled router pairs — zero for the
	// exact oracle, the embedding's measured error for coords. They are
	// deterministic (fixed sampling seed, worker-independent).
	OracleErrP50 float64
	OracleErrP90 float64
	// Events is the number of simulation events the cell's ring
	// processed — deterministic, and the denominator-independent half
	// of the events/sec trajectory.
	Events uint64
	// Depth is the maximum SOMO representative level observed.
	Depth int
	// Records is the number of members captured in the root snapshot.
	Records int
	// Staleness is the worst record age in the root snapshot (ms); the
	// paper bounds it by ~(depth+1)*T, which grows O(log N) — near-flat.
	Staleness float64
	// MsgsPerNodeSec is total DHT+SOMO traffic per node per second —
	// the per-node overhead that must stay flat as N grows.
	MsgsPerNodeSec float64
	// Improvement is the fig-8-style Leafset+adjust tree-height
	// improvement over plain AMCast for one GroupSize-member session.
	Improvement float64

	// BenchWallMS is the cell's total wall time (pool build + ring
	// simulation + planning probe).
	BenchWallMS float64 `json:"wall_ms"`
	// BenchAllocs is the heap allocation count over the cell
	// (runtime.MemStats Mallocs delta).
	BenchAllocs uint64 `json:"allocs"`
	// BenchEventsPerSec is Events divided by the ring-simulation wall
	// time — the per-event cost trajectory.
	BenchEventsPerSec float64 `json:"events_per_sec"`
	// BenchHeapInuseMB is the live Go heap after the cell (MemStats
	// HeapInuse, MB): the structure the simulation keeps resident,
	// attributable to this cell because a GC runs right before reading.
	BenchHeapInuseMB float64 `json:"heap_inuse_mb"`
	// BenchPeakRSSMB is the OS-reported peak resident set (VmHWM from
	// /proc/self/status, MB; 0 where unavailable). It is a process-wide
	// high-water mark, attributable because cells run sequentially in
	// ascending size order — the largest cell sets the peak.
	BenchPeakRSSMB float64 `json:"peak_rss_mb"`
}

// ScaleResult is the scale study.
type ScaleResult struct {
	Opts ScaleOptions
	Rows []ScaleRow
}

// Scale runs the study: per pool size, build the pool (topology,
// coordinates, degrees), run a live DHT+SOMO ring over the pool's
// latencies for Runtime on the sharded event loop, query the root
// snapshot, and plan one ALM session — measuring protocol-shape
// metrics at every N, plus harness cost when Bench is set.
func Scale(opts ScaleOptions) (*ScaleResult, error) {
	opts = opts.withDefaults()
	for _, n := range opts.Sizes {
		if opts.GroupSize+1 > n {
			return nil, fmt.Errorf("experiments: group size %d exceeds pool size %d", opts.GroupSize, n)
		}
	}
	res := &ScaleResult{Opts: opts}
	// Cells run sequentially: each saturates the machine through its
	// intra-cell parallelism, and sequential ascending sizes are what
	// make the bench memory readings attributable.
	for _, n := range opts.Sizes {
		row, err := scaleRun(n, opts)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func scaleRun(n int, opts ScaleOptions) (ScaleRow, error) {
	var msBefore runtime.MemStats
	if opts.Bench {
		runtime.GC()
		runtime.ReadMemStats(&msBefore)
	}
	start := time.Now()

	// The pool: topology with n hosts and a proportionally scaled
	// router substrate, coordinates, degree bounds.
	top := scaleTopology(n, opts)
	pool, err := core.BuildFast(core.Options{Topology: top, Seed: opts.Seed, Workers: opts.Workers})
	if err != nil {
		return ScaleRow{}, err
	}
	row := ScaleRow{
		Hosts:   n,
		Routers: top.NumRouters(),
		Oracle:  pool.Net.OracleKind().String(),
	}
	row.OracleErrP50, row.OracleErrP90 = pool.Net.OracleError(1000, opts.Seed+17)

	// A live DHT+SOMO ring over the pool's true latencies, partitioned
	// across the sharded event loop. The lookahead is the topology's
	// minimum cross-host latency: every path crosses two last hops.
	sim := transport.NewShardedSim(transport.ShardedSimOptions{
		Latency:   pool.TrueLatency,
		Shards:    scaleShards,
		Lookahead: eventsim.Time(2 * top.LastHopMin),
		Workers:   opts.Workers,
		Seed:      opts.Seed + int64(n),
	})
	r := rand.New(rand.NewSource(opts.Seed + int64(n) + 7))
	nodes, _, err := core.Ring(sim.View, dht.RandomIDs(n, r), dht.Config{LeafsetRadius: 8})
	if err != nil {
		return ScaleRow{}, err
	}
	agents, _ := core.AttachSOMO(nodes, somo.Config{}, hostPayload)
	simStart := time.Now()
	sim.RunUntil(opts.Runtime)
	simWall := time.Since(simStart)

	row.Events = sim.Processed()
	view, _ := core.ReadRoot(agents)
	row.Depth = view.Depth
	row.Records = len(view.Snapshot.Records)
	row.Staleness = float64(view.Staleness)
	stats := sim.Stats()
	row.MsgsPerNodeSec = float64(stats.MessagesSent) / float64(n) /
		(float64(opts.Runtime) / 1000)

	// Fig-8-style improvement probe: one Leafset+adjust session at
	// GroupSize members against the plain-AMCast baseline.
	perm := rand.New(rand.NewSource(opts.Seed + int64(n) + 13)).Perm(n)
	sroot, members := perm[0], perm[1:opts.GroupSize+1]
	base, err := pool.PlanSession(sroot, members, core.PlanOptions{NoHelpers: true})
	if err != nil {
		return ScaleRow{}, err
	}
	tr, err := pool.PlanSession(sroot, members, core.PlanOptions{Mode: core.Leafset, Adjust: true})
	if err != nil {
		return ScaleRow{}, err
	}
	hBase := base.MaxHeight(pool.TrueLatency)
	row.Improvement = 1 - tr.MaxHeight(pool.TrueLatency)/hBase

	if opts.Bench {
		row.BenchWallMS = float64(time.Since(start).Milliseconds())
		var msAfter runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&msAfter)
		row.BenchAllocs = msAfter.Mallocs - msBefore.Mallocs
		row.BenchHeapInuseMB = float64(msAfter.HeapInuse) / 1e6
		row.BenchPeakRSSMB = readPeakRSSMB()
		if s := simWall.Seconds(); s > 0 {
			row.BenchEventsPerSec = float64(row.Events) / s
		}
	}
	return row, nil
}

// readPeakRSSMB reads the process's peak resident set size (VmHWM) from
// /proc/self/status, in MB; 0 where the file or field is unavailable
// (non-Linux). This is the OS high-water mark — it never decreases —
// which is why bench cells run in ascending size order.
func readPeakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1000
	}
	return 0
}

// Tables renders the deterministic half of the study. Bench fields are
// deliberately absent: wall clocks differ run to run, and this output
// participates in the byte-identical determinism contract.
func (r *ScaleResult) Tables() []Table {
	t := Table{
		Title: "Scale study: paper-shape metrics vs pool size (up to ~100x the paper's 1200 hosts)",
		Columns: []string{"hosts", "routers", "oracle", "err p50", "err p90",
			"events", "depth", "records", "staleness ms", "msgs/node/s", "improvement"},
		Note: "self-scaling claim: staleness tracks (depth+1)*T = O(log N), msgs/node/s and " +
			"ALM improvement stay flat while N grows; oracle err is the coordinate embedding's " +
			"measured relative error vs exact Dijkstra (0 when the exact table is in use); " +
			"wall-clock/alloc/memory trajectory in BENCH_scale.json",
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			d(row.Hosts), d(row.Routers), row.Oracle,
			f3(row.OracleErrP50), f3(row.OracleErrP90),
			fmt.Sprintf("%d", row.Events), d(row.Depth), d(row.Records),
			f1(row.Staleness), f3(row.MsgsPerNodeSec), f3(row.Improvement),
		})
	}
	return []Table{t}
}

// scaleBenchRow is one bench-scale/v2 row (schema in benchfile.go). It
// is a struct where the other studies list a benchObject because the
// oracle error fields are left out of exact-oracle rows, which a tag
// can say and a field list cannot.
type scaleBenchRow struct {
	Hosts        int     `json:"hosts"`
	Routers      int     `json:"routers,omitempty"`
	Oracle       string  `json:"oracle,omitempty"`
	OracleErrP50 float64 `json:"oracle_err_p50,omitempty"`
	OracleErrP90 float64 `json:"oracle_err_p90,omitempty"`
	WallMS       float64 `json:"wall_ms"`
	Allocs       uint64  `json:"allocs"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	HeapInuseMB  float64 `json:"heap_inuse_mb"`
	PeakRSSMB    float64 `json:"peak_rss_mb"`
	StalenessMS  float64 `json:"staleness_ms"`
	Improvement  float64 `json:"improvement"`
}

// AppendBenchJSON merges this result into an existing BENCH_scale.json
// as a run labeled label; see appendBenchRun. Call only on a result
// produced with ScaleOptions.Bench set; otherwise the wall-clock fields
// are zero.
func (r *ScaleResult) AppendBenchJSON(existing []byte, label string) ([]byte, error) {
	rows := make([]scaleBenchRow, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = scaleBenchRow{
			Hosts:        row.Hosts,
			Routers:      row.Routers,
			Oracle:       row.Oracle,
			OracleErrP50: row.OracleErrP50,
			OracleErrP90: row.OracleErrP90,
			WallMS:       row.BenchWallMS,
			Allocs:       row.BenchAllocs,
			Events:       row.Events,
			EventsPerSec: row.BenchEventsPerSec,
			HeapInuseMB:  row.BenchHeapInuseMB,
			PeakRSSMB:    row.BenchPeakRSSMB,
			StalenessMS:  row.Staleness,
			Improvement:  row.Improvement,
		}
	}
	// The shard count is structural (part of the seed schedule): a run
	// produced under a different count beside the ones that stay would
	// chart incomparable figures as one trajectory. Legacy runs with no
	// recorded count (0) all used the then-hardwired 8.
	sameShards := func(oldLabel string, run json.RawMessage) error {
		var old struct {
			Shards int `json:"shards"`
		}
		if err := json.Unmarshal(run, &old); err != nil {
			return fmt.Errorf("experiments: parsing bench run %q: %w", oldLabel, err)
		}
		if old.Shards == 0 {
			old.Shards = scaleShards
		}
		if old.Shards != scaleShards {
			return fmt.Errorf(
				"experiments: bench file run %q was produced with %d shards, new run %q uses %d: "+
					"shard count is structural, so their figures are not comparable — "+
					"use a fresh bench file",
				oldLabel, old.Shards, label, scaleShards)
		}
		return nil
	}
	return appendBenchRun(existing, "bench-scale/v2", label, benchObject{
		{"seed", r.Opts.Seed}, {"runtime_ms", float64(r.Opts.Runtime)},
		{"group_size", r.Opts.GroupSize}, {"shards", scaleShards},
	}, rows, sameShards)
}
