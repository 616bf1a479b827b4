package experiments

import (
	"math"
	"math/rand"

	"p2ppool/internal/core"
	"p2ppool/internal/dht"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/par"
	"p2ppool/internal/somo"
	"p2ppool/internal/transport"
)

// SOMOOptions parameterizes the SOMO aggregation study (the Section
// 3.2 analysis: gather latency bounds log_k(N)*T unsynchronized vs
// T + t_hop*log_k(N) synchronized, and the self-scaling tree depth).
type SOMOOptions struct {
	// Sizes of the simulated rings.
	Sizes []int
	// Fanouts of the logical tree.
	Fanouts []int
	// Runtime of each simulation.
	Runtime eventsim.Time
	Seed    int64
	// Workers bounds the parallelism; <= 0 means runtime.NumCPU(). The
	// output is identical for any worker count.
	Workers int
}

func (o SOMOOptions) withDefaults() SOMOOptions {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{64, 256}
	}
	if len(o.Fanouts) == 0 {
		o.Fanouts = []int{2, 8}
	}
	if o.Runtime <= 0 {
		o.Runtime = 3 * eventsim.Minute
	}
	return o
}

// SOMORow is one configuration's measurements.
type SOMORow struct {
	Nodes  int
	Fanout int
	Sync   bool
	// Depth is the maximum representative level observed.
	Depth int
	// LogBound is ceil(log_fanout(Nodes)), the analytic depth bound.
	LogBound int
	// Staleness is the worst record age in the root snapshot at the
	// end of the run (ms).
	Staleness float64
	// StalenessBound is the analytic gather-latency bound for the
	// configuration: depth*T unsynchronized, T + t_hop*depth
	// synchronized.
	StalenessBound float64
	// Records is the number of members captured in the root snapshot.
	Records int
	// MsgsPerNodeSec is total SOMO+DHT traffic per node per second.
	MsgsPerNodeSec float64
}

// SOMOResult is the measured study plus the paper's 2M-node analytic
// extrapolation.
type SOMOResult struct {
	Opts SOMOOptions
	Rows []SOMORow
}

// SOMOExperiment runs live SOMO over simulated rings and measures
// depth, gather staleness and traffic, for both flow modes.
func SOMOExperiment(opts SOMOOptions) (*SOMOResult, error) {
	opts = opts.withDefaults()
	// Each (size, fanout, flow) cell runs its own engine seeded by the
	// cell, so the sweep parallelizes as-is; rows merge in sweep order.
	type cell struct {
		n, fanout int
		sync      bool
	}
	var cells []cell
	for _, n := range opts.Sizes {
		for _, fanout := range opts.Fanouts {
			for _, sync := range []bool{false, true} {
				cells = append(cells, cell{n: n, fanout: fanout, sync: sync})
			}
		}
	}
	rows, err := par.MapErr(opts.Workers, len(cells), func(i int) (SOMORow, error) {
		return somoRun(cells[i].n, cells[i].fanout, cells[i].sync, opts)
	})
	if err != nil {
		return nil, err
	}
	return &SOMOResult{Opts: opts, Rows: rows}, nil
}

// somoHopMS is the uniform one-way latency between members, t_hop in
// the Section 3.2 bounds: the "typical one-way hop" somo sizes its
// gather window by (4 hops = 400 ms).
const somoHopMS = 100

func somoRun(n, fanout int, sync bool, opts SOMOOptions) (SOMORow, error) {
	engine := eventsim.New(opts.Seed + int64(n*10+fanout))
	net := transport.NewSim(engine, transport.SimOptions{Latency: uniformLatency(somoHopMS)})
	r := rand.New(rand.NewSource(opts.Seed + int64(n+fanout)))
	nodes, _, err := core.Ring(core.OnNet(net), dht.RandomIDs(n, r), dht.Config{LeafsetRadius: 8})
	if err != nil {
		return SOMORow{}, err
	}
	agents, _ := core.AttachSOMO(nodes, somo.Config{Fanout: fanout, Synchronized: sync}, hostPayload)
	engine.RunUntil(opts.Runtime)

	view, ok := core.ReadRoot(agents)
	row := SOMORow{Nodes: n, Fanout: fanout, Sync: sync, Depth: view.Depth}
	if !ok {
		return row, nil
	}
	row.Records = len(view.Snapshot.Records)
	row.Staleness = float64(view.Staleness)
	row.LogBound = int(math.Ceil(math.Log(float64(n)) / math.Log(float64(fanout))))
	// T is the agents' own (somo's default); so is the 400 ms a pulled
	// node waits for its children, which somo does not export.
	const gatherWindow = 400 * eventsim.Millisecond
	cfg := agents[0].Config()
	if sync {
		// One wave round-trip: per level, a pull hop down, a gather
		// window, and a report hop up; plus at most one interval since
		// the previous wave refreshed the leaves.
		row.StalenessBound = float64(cfg.ReportInterval) +
			float64(row.Depth+1)*(float64(gatherWindow)+2*somoHopMS)
	} else {
		row.StalenessBound = float64(cfg.ReportInterval) * float64(row.Depth+1)
	}
	stats := net.Stats()
	row.MsgsPerNodeSec = float64(stats.MessagesSent) / float64(n) /
		(float64(opts.Runtime) / 1000)
	return row, nil
}

// Tables renders the study plus the Section 3.2 extrapolation.
func (r *SOMOResult) Tables() []Table {
	t := Table{
		Title: "SOMO aggregation: depth, gather staleness and traffic (Section 3.2)",
		Columns: []string{"nodes", "fanout", "flow", "depth", "log_k(N)",
			"records", "staleness ms", "bound ms", "msgs/node/s"},
		Note: "unsynchronized flow is bounded by ~depth*T; synchronized by T + t_hop*depth; " +
			"depth tracks log_k(N) (plus zone-size skew)",
	}
	for _, row := range r.Rows {
		flow := "unsync"
		if row.Sync {
			flow = "sync"
		}
		t.Rows = append(t.Rows, []string{
			d(row.Nodes), d(row.Fanout), flow, d(row.Depth), d(row.LogBound),
			d(row.Records), f1(row.Staleness), f1(row.StalenessBound),
			f3(row.MsgsPerNodeSec),
		})
	}
	// The paper's headline extrapolation: 2M nodes, k=8, 200 ms/hop.
	ana := Table{
		Title:   "Section 3.2 analytic extrapolation: t_hop * log_k(N)",
		Columns: []string{"nodes", "fanout", "hop ms", "root lag (s)"},
		Note:    "the paper quotes 1.6 s for 2M nodes, k=8, 200 ms per hop",
	}
	for _, n := range []float64{1e4, 1e5, 2e6} {
		for _, k := range []float64{4, 8, 16} {
			lag := 200 * math.Log(n) / math.Log(k) / 1000
			ana.Rows = append(ana.Rows, []string{
				fmt6(n), d(int(k)), "200", f3(lag),
			})
		}
	}
	return []Table{t, ana}
}

func fmt6(x float64) string {
	if x >= 1e6 {
		return f1(x/1e6) + "M"
	}
	if x >= 1e3 {
		return f1(x/1e3) + "k"
	}
	return f1(x)
}
