package experiments

import (
	"math"
	"math/rand"

	"p2ppool/internal/core"
	"p2ppool/internal/par"
)

// QoSOptions parameterizes the multi-criteria tree comparison.
// Section 5.1 names three QoS criteria — bandwidth bottleneck, maximal
// latency, variance of latencies — and optimizes the second; this
// experiment evaluates the trees every algorithm produces on all
// three (plus structural measures), showing what the max-latency
// objective costs and buys on the other axes.
type QoSOptions struct {
	Hosts     int
	GroupSize int
	Runs      int
	Seed      int64
	// Workers bounds the parallelism; <= 0 means runtime.NumCPU(). The
	// output is identical for any worker count.
	Workers int
}

func (o QoSOptions) withDefaults() QoSOptions {
	if o.Hosts <= 0 {
		o.Hosts = 1200
	}
	if o.GroupSize <= 0 {
		o.GroupSize = 20
	}
	if o.Runs <= 0 {
		o.Runs = 10
	}
	return o
}

// QoSRow is one algorithm's averaged metrics.
type QoSRow struct {
	Algorithm     string
	MaxHeight     float64 // ms, the paper's objective
	HeightStdDev  float64 // sqrt of the variance-of-latencies criterion
	BottleneckBW  float64 // kbps, min link bandwidth in the tree
	TotalEdgeLat  float64 // ms, resource consumption proxy
	Depth         float64 // hops
	HelpersUsed   float64
	TreesMeasured int
}

// QoSResult compares the algorithms across Section 5.1's criteria.
type QoSResult struct {
	Opts QoSOptions
	Rows []QoSRow
}

// QoS runs the comparison.
func QoS(opts QoSOptions) (*QoSResult, error) {
	opts = opts.withDefaults()
	if err := checkGroupSize(opts.GroupSize, opts.Hosts); err != nil {
		return nil, err
	}
	pool, err := paperPool(opts.Hosts, opts.Seed, opts.Workers)
	if err != nil {
		return nil, err
	}
	bw := func(parent, child int) float64 { return pool.Model.PathBottleneck(parent, child) }

	algos := []struct {
		name string
		opt  core.PlanOptions
	}{
		{"AMCast", core.PlanOptions{NoHelpers: true}},
		{"AMCast+adju", core.PlanOptions{NoHelpers: true, Adjust: true}},
		{"Critical+adju", core.PlanOptions{Mode: core.Critical, Adjust: true}},
		{"Leafset+adju", core.PlanOptions{Mode: core.Leafset, Adjust: true}},
	}
	res := &QoSResult{Opts: opts}
	rows := make([]QoSRow, len(algos))
	for i, a := range algos {
		rows[i].Algorithm = a.name
	}
	// Pre-draw session memberships in run order, fan the runs out, then
	// accumulate per-run measurements in the sequential order.
	r := rand.New(rand.NewSource(opts.Seed + 1))
	perms := make([][]int, opts.Runs)
	for run := range perms {
		perms[run] = r.Perm(opts.Hosts)
	}
	type algoOut struct {
		maxHeight, heightStdDev, bottleneckBW float64
		totalEdgeLat, depth, helpersUsed      float64
	}
	outs, err := par.MapErr(opts.Workers, opts.Runs, func(run int) ([]algoOut, error) {
		perm := perms[run]
		root, members := perm[0], perm[1:opts.GroupSize]
		out := make([]algoOut, len(algos))
		for i, a := range algos {
			tree, err := pool.PlanSession(root, members, a.opt)
			if err != nil {
				return nil, err
			}
			out[i] = algoOut{
				maxHeight:    tree.MaxHeight(pool.TrueLatency),
				heightStdDev: math.Sqrt(tree.HeightVariance(pool.TrueLatency)),
				bottleneckBW: tree.BottleneckBandwidth(bw),
				totalEdgeLat: tree.TotalEdgeLatency(pool.TrueLatency),
				depth:        float64(tree.Depth()),
				helpersUsed:  float64(tree.Size() - opts.GroupSize),
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for _, out := range outs {
		for i := range algos {
			rows[i].MaxHeight += out[i].maxHeight
			rows[i].HeightStdDev += out[i].heightStdDev
			rows[i].BottleneckBW += out[i].bottleneckBW
			rows[i].TotalEdgeLat += out[i].totalEdgeLat
			rows[i].Depth += out[i].depth
			rows[i].HelpersUsed += out[i].helpersUsed
			rows[i].TreesMeasured++
		}
	}
	for i := range rows {
		n := float64(rows[i].TreesMeasured)
		rows[i].MaxHeight /= n
		rows[i].HeightStdDev /= n
		rows[i].BottleneckBW /= n
		rows[i].TotalEdgeLat /= n
		rows[i].Depth /= n
		rows[i].HelpersUsed /= n
	}
	res.Rows = rows
	return res, nil
}

// Tables renders the comparison.
func (r *QoSResult) Tables() []Table {
	t := Table{
		Title: "Section 5.1 criteria: trees compared on every QoS axis (group " +
			d(r.Opts.GroupSize) + ")",
		Columns: []string{"algorithm", "max height ms", "height stddev ms",
			"bottleneck kbps", "total edge ms", "depth", "helpers"},
		Note: "the planners optimize max height; helper trees also flatten depth and " +
			"variance, at the cost of more edges (total latency) and inheriting the " +
			"narrowest recruited link in the bandwidth bottleneck",
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Algorithm,
			f1(row.MaxHeight),
			f1(row.HeightStdDev),
			f1(row.BottleneckBW),
			f1(row.TotalEdgeLat),
			f1(row.Depth),
			f1(row.HelpersUsed),
		})
	}
	return []Table{t}
}
