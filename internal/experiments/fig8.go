package experiments

import (
	"fmt"
	"math/rand"

	"p2ppool/internal/alm"
	"p2ppool/internal/core"
	"p2ppool/internal/par"
)

// Fig8Options parameterizes the single-session ALM experiment.
type Fig8Options struct {
	// Hosts in the resource pool (paper: 1200 — the whole population).
	Hosts int
	// GroupSizes to sweep (session sizes including the root).
	GroupSizes []int
	// Runs per group size (paper: 20).
	Runs int
	Seed int64
	// Workers bounds the parallelism; <= 0 means runtime.NumCPU(). The
	// output is identical for any worker count.
	Workers int
}

func (o Fig8Options) withDefaults() Fig8Options {
	if o.Hosts <= 0 {
		o.Hosts = 1200
	}
	if len(o.GroupSizes) == 0 {
		o.GroupSizes = []int{10, 20, 40, 60, 80, 100, 150, 200}
	}
	if o.Runs <= 0 {
		o.Runs = 20
	}
	return o
}

// Fig8Row holds the average improvements over plain AMCast at one
// group size — the series of Figure 8.
type Fig8Row struct {
	GroupSize    int
	AMCastAdjust float64 // adjust moves only, members only
	Critical     float64 // helpers with oracle latency
	CriticalAdj  float64
	Leafset      float64 // helpers with coordinate vicinity judgment
	LeafsetAdj   float64
	Bound        float64 // theoretical star upper bound
	Helpers      float64 // avg helpers recruited by Critical+adjust
}

// Fig8Result reproduces Figure 8.
type Fig8Result struct {
	Opts Fig8Options
	Rows []Fig8Row
}

// Fig8 runs the experiment: for each group size, Runs random sessions
// are planned by every algorithm over the same pool, and improvements
// are measured against plain AMCast with true latencies. The helper
// radius R is core.PlanOptions' default; the ablations sweep it.
//
// The session memberships are pre-drawn sequentially from the rng in
// sweep order (the order the sequential harness drew them); the
// deterministic planning work for each (group size, run) cell then
// executes on a worker pool, and per-run results are accumulated in
// run order so the averages see the exact float-op sequence of the
// sequential loop — identical output for any Workers value.
func Fig8(opts Fig8Options) (*Fig8Result, error) {
	opts = opts.withDefaults()
	pool, err := paperPool(opts.Hosts, opts.Seed, opts.Workers)
	if err != nil {
		return nil, err
	}
	for _, gs := range opts.GroupSizes {
		if gs < 2 || gs > opts.Hosts {
			return nil, fmt.Errorf("experiments: group size %d out of range", gs)
		}
	}

	// Pre-draw every session membership in sweep order.
	r := rand.New(rand.NewSource(opts.Seed + 1))
	type cell struct {
		gs   int
		perm []int
	}
	cells := make([]cell, 0, len(opts.GroupSizes)*opts.Runs)
	for _, gs := range opts.GroupSizes {
		for run := 0; run < opts.Runs; run++ {
			cells = append(cells, cell{gs: gs, perm: r.Perm(opts.Hosts)})
		}
	}

	// One run's contributions to its row.
	type runOut struct {
		amcastAdjust, critical, criticalAdj float64
		leafset, leafsetAdj, bound, helpers float64
	}
	outs, err := par.MapErr(opts.Workers, len(cells), func(i int) (runOut, error) {
		gs, perm := cells[i].gs, cells[i].perm
		root, members := perm[0], perm[1:gs]

		base, err := pool.PlanSession(root, members, core.PlanOptions{NoHelpers: true})
		if err != nil {
			return runOut{}, err
		}
		hBase := base.MaxHeight(pool.TrueLatency)

		measure := func(opt core.PlanOptions) (float64, *alm.Tree, error) {
			tr, err := pool.PlanSession(root, members, opt)
			if err != nil {
				return 0, nil, err
			}
			return alm.Improvement(hBase, tr.MaxHeight(pool.TrueLatency)), tr, nil
		}

		var out runOut
		if out.amcastAdjust, _, err = measure(core.PlanOptions{NoHelpers: true, Adjust: true}); err != nil {
			return runOut{}, err
		}
		if out.critical, _, err = measure(core.PlanOptions{Mode: core.Critical}); err != nil {
			return runOut{}, err
		}
		imp, critTree, err := measure(core.PlanOptions{Mode: core.Critical, Adjust: true})
		if err != nil {
			return runOut{}, err
		}
		out.criticalAdj = imp
		out.helpers = float64(critTree.Size() - gs)
		if out.leafset, _, err = measure(core.PlanOptions{Mode: core.Leafset}); err != nil {
			return runOut{}, err
		}
		if out.leafsetAdj, _, err = measure(core.PlanOptions{Mode: core.Leafset, Adjust: true}); err != nil {
			return runOut{}, err
		}
		prob := alm.Problem{Root: root, Members: members, Latency: pool.TrueLatency, Degree: pool.DegreeBound}
		out.bound = alm.BoundImprovement(prob, hBase)
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	// Merge in sweep order, replicating the sequential accumulation.
	res := &Fig8Result{Opts: opts}
	i := 0
	for _, gs := range opts.GroupSizes {
		var row Fig8Row
		row.GroupSize = gs
		for run := 0; run < opts.Runs; run++ {
			out := outs[i]
			i++
			row.AMCastAdjust += out.amcastAdjust
			row.Critical += out.critical
			row.CriticalAdj += out.criticalAdj
			row.Helpers += out.helpers
			row.Leafset += out.leafset
			row.LeafsetAdj += out.leafsetAdj
			row.Bound += out.bound
		}
		n := float64(opts.Runs)
		row.AMCastAdjust /= n
		row.Critical /= n
		row.CriticalAdj /= n
		row.Leafset /= n
		row.LeafsetAdj /= n
		row.Bound /= n
		row.Helpers /= n
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Tables renders the Figure 8 series.
func (r *Fig8Result) Tables() []Table {
	t := Table{
		Title: "Figure 8: tree-height improvement over AMCast vs group size",
		Columns: []string{"group", "AMCast+adju", "Critical", "Critical+adju",
			"Leafset", "Leafset+adju", "Bound", "helpers(Crit+adju)"},
		Note: "paper shape: bound 40-50%; Critical+adju ~35% at group 20; Leafset+adju " +
			">=30% at 100 and ~35% at 20 (ours trails Critical slightly); adjust alone ~5%; " +
			"gains shrink as groups grow (large groups already contain high-degree members)",
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			d(row.GroupSize),
			f3(row.AMCastAdjust),
			f3(row.Critical),
			f3(row.CriticalAdj),
			f3(row.Leafset),
			f3(row.LeafsetAdj),
			f3(row.Bound),
			f1(row.Helpers),
		})
	}
	return []Table{t}
}
