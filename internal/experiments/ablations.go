package experiments

import (
	"math/rand"

	"p2ppool/internal/alm"
	"p2ppool/internal/coords"
	"p2ppool/internal/core"
	"p2ppool/internal/par"
	"p2ppool/internal/stats"
)

// AblationOptions parameterizes the design-choice studies DESIGN.md
// calls out.
type AblationOptions struct {
	Hosts     int
	GroupSize int
	Runs      int
	Seed      int64
	// Workers bounds the parallelism; <= 0 means runtime.NumCPU(). The
	// output is identical for any worker count.
	Workers int
}

func (o AblationOptions) withDefaults() AblationOptions {
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

// AblationResult aggregates the ablation tables.
type AblationResult struct {
	Opts   AblationOptions
	tables []Table
}

// Tables implements Result.
func (r *AblationResult) Tables() []Table { return r.tables }

// Ablations runs the design-choice studies:
//
//   - radius R sweep (paper: 50-150 effective);
//   - helper scoring heuristic: paper's l(h,p)+max l(h,sib) vs
//     nearest-to-parent;
//   - Leafset-mode shortlist verification budget;
//   - coordinate solver: incremental join vs simultaneous relaxation,
//     and embedding dimension.
func Ablations(opts AblationOptions) (*AblationResult, error) {
	opts = opts.withDefaults()
	pool, err := paperPool(opts.Hosts, opts.Seed, opts.Workers)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Opts: opts}

	// Shared set of sessions for all planner ablations: memberships are
	// pre-drawn sequentially, then the baselines (which consume no
	// randomness) are planned on the worker pool.
	type session struct {
		root    int
		members []int
		hBase   float64
	}
	r := rand.New(rand.NewSource(opts.Seed + 1))
	perms := make([][]int, opts.Runs)
	for i := range perms {
		perms[i] = r.Perm(opts.Hosts)
	}
	sessions, err := par.MapErr(opts.Workers, opts.Runs, func(i int) (session, error) {
		perm := perms[i]
		root, members := perm[0], perm[1:opts.GroupSize]
		base, err := pool.PlanSession(root, members, core.PlanOptions{NoHelpers: true})
		if err != nil {
			return session{}, err
		}
		return session{root: root, members: members, hBase: base.MaxHeight(pool.TrueLatency)}, nil
	})
	if err != nil {
		return nil, err
	}
	avgImp := func(opt core.PlanOptions) (float64, error) {
		imps, err := par.MapErr(opts.Workers, len(sessions), func(i int) (float64, error) {
			s := sessions[i]
			tr, err := pool.PlanSession(s.root, s.members, opt)
			if err != nil {
				return 0, err
			}
			return alm.Improvement(s.hBase, tr.MaxHeight(pool.TrueLatency)), nil
		})
		if err != nil {
			return 0, err
		}
		total := 0.0
		for _, imp := range imps {
			total += imp
		}
		return total / float64(len(sessions)), nil
	}

	// 1. Radius sweep.
	radius := Table{
		Title:   "Ablation: helper radius R (Critical+adjust and Leafset+adjust)",
		Columns: []string{"R", "Critical+adju", "Leafset+adju"},
		Note:    "paper: R in 50-150 yields satisfactory results; too small starves candidates, too large admits junk",
	}
	for _, R := range []float64{25, 50, 100, 150, 250, 400} {
		c, err := avgImp(core.PlanOptions{Mode: core.Critical, Adjust: true, Radius: R})
		if err != nil {
			return nil, err
		}
		l, err := avgImp(core.PlanOptions{Mode: core.Leafset, Adjust: true, Radius: R})
		if err != nil {
			return nil, err
		}
		radius.Rows = append(radius.Rows, []string{f1(R), f3(c), f3(l)})
	}
	res.tables = append(res.tables, radius)

	// 2. Scoring heuristic.
	scoring := Table{
		Title:   "Ablation: helper scoring heuristic (Critical, no adjust)",
		Columns: []string{"heuristic", "improvement"},
		Note:    "the paper found l(h,parent)+max l(h,sibling) better than nearest-to-parent",
	}
	paperScore, err := avgImp(core.PlanOptions{Mode: core.Critical, Scoring: alm.ScorePaper})
	if err != nil {
		return nil, err
	}
	nearest, err := avgImp(core.PlanOptions{Mode: core.Critical, Scoring: alm.ScoreNearestParent})
	if err != nil {
		return nil, err
	}
	scoring.Rows = append(scoring.Rows,
		[]string{"l(h,p)+max l(h,sib)", f3(paperScore)},
		[]string{"nearest-to-parent", f3(nearest)},
	)
	res.tables = append(res.tables, scoring)

	// 3. Verification budget for Leafset mode.
	verify := Table{
		Title:   "Ablation: Leafset-mode candidate verification budget",
		Columns: []string{"shortlist (VerifyTop)", "Leafset+adju"},
		Note:    "vicinity judged on coordinates; the task manager measures only the shortlist",
	}
	for _, vt := range []int{1, 4, 8, 16, 32} {
		l, err := avgImp(core.PlanOptions{Mode: core.Leafset, Adjust: true, VerifyTop: vt})
		if err != nil {
			return nil, err
		}
		verify.Rows = append(verify.Rows, []string{d(vt), f3(l)})
	}
	res.tables = append(res.tables, verify)

	// 4. Coordinate solver construction and dimension.
	solver := Table{
		Title:   "Ablation: leafset coordinate solver (median / p90 relative pair error)",
		Columns: []string{"construction", "dim", "median", "p90"},
		Note:    "incremental join (PIC-style bootstrap) vs simultaneous relaxation from random positions",
	}
	pr := rand.New(rand.NewSource(opts.Seed + 9))
	pairs := coords.RandomPairs(opts.Hosts, 1500, pr)
	nb := ringNeighborsFn(opts.Hosts, 32, rand.New(rand.NewSource(opts.Seed+10)))
	type solverCell struct {
		sim bool
		dim int
	}
	var solverCells []solverCell
	for _, sim := range []bool{false, true} {
		for _, dim := range []int{3, 5, 7} {
			solverCells = append(solverCells, solverCell{sim: sim, dim: dim})
		}
	}
	solverRows, err := par.MapErr(opts.Workers, len(solverCells), func(i int) ([]string, error) {
		sim, dim := solverCells[i].sim, solverCells[i].dim
		cs, err := coords.SolveLeafset(pool.TrueLatency, opts.Hosts, nb, coords.LeafsetConfig{
			Dim: dim, Rounds: 15, Seed: opts.Seed + 11, Core: 33, Simultaneous: sim, Workers: opts.Workers,
		})
		if err != nil {
			return nil, err
		}
		errs := coords.PairErrors(cs, pool.TrueLatency, pairs)
		name := "incremental"
		if sim {
			name = "simultaneous"
		}
		return []string{name, d(dim), f3(stats.Median(errs)), f3(stats.Percentile(errs, 90))}, nil
	})
	if err != nil {
		return nil, err
	}
	solver.Rows = append(solver.Rows, solverRows...)
	res.tables = append(res.tables, solver)
	return res, nil
}
