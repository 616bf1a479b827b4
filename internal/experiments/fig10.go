package experiments

import (
	"fmt"
	"math/rand"

	"p2ppool/internal/alm"
	"p2ppool/internal/core"
	"p2ppool/internal/par"
	"p2ppool/internal/sched"
)

// Fig10Options parameterizes the multi-session experiment.
type Fig10Options struct {
	// Hosts in the pool (paper: 1200 — at 60 sessions of 20, every
	// host belongs to a session).
	Hosts int
	// SessionCounts to sweep (paper: 10..60).
	SessionCounts []int
	// GroupSize per session (paper: 20, non-overlapping).
	GroupSize int
	// Runs per session count (averaging over random priorities/placements).
	Runs int
	Seed int64
	// Workers bounds the parallelism; <= 0 means runtime.NumCPU(). The
	// output is identical for any worker count.
	Workers int
}

func (o Fig10Options) withDefaults() Fig10Options {
	if o.Hosts <= 0 {
		o.Hosts = 1200
	}
	if len(o.SessionCounts) == 0 {
		o.SessionCounts = []int{10, 20, 30, 40, 50, 60}
	}
	if o.GroupSize <= 0 {
		o.GroupSize = 20
	}
	if o.Runs <= 0 {
		o.Runs = 5
	}
	return o
}

// Fig10Row holds the per-priority averages at one session count.
type Fig10Row struct {
	Sessions int
	// Improvement[p] is the mean improvement over each session's own
	// AMCast+adjust baseline, for priority class p (1..3).
	Improvement [4]float64
	// Helpers[p] is the mean helper count per session of priority p.
	Helpers [4]float64
	// LowerBound and UpperBound frame the expected interval:
	// AMCast+adjust (no helpers) and Leafset+adjust alone in the pool.
	LowerBound float64
	UpperBound float64
}

// Fig10Result reproduces Figure 10 (a) and (b).
type Fig10Result struct {
	Opts Fig10Options
	Rows []Fig10Row
}

// Fig10 runs the experiment: for each session count, non-overlapping
// sessions of GroupSize members with uniform-random priorities 1..3
// compete for the pool through the market-driven scheduler; each
// session's improvement is measured against its own members-only
// AMCast+adjust plan. The helper radius R is the planner's and the
// scheduler's own default, which agree.
func Fig10(opts Fig10Options) (*Fig10Result, error) {
	opts = opts.withDefaults()
	maxSessions := 0
	for _, s := range opts.SessionCounts {
		if s > maxSessions {
			maxSessions = s
		}
	}
	if maxSessions*opts.GroupSize > opts.Hosts {
		return nil, fmt.Errorf("experiments: %d sessions of %d exceed %d hosts",
			maxSessions, opts.GroupSize, opts.Hosts)
	}
	pool, err := paperPool(opts.Hosts, opts.Seed, opts.Workers)
	if err != nil {
		return nil, err
	}

	// Each (session count, run) cell draws from its own rng seeded by
	// (nSessions, run), so cells execute on a worker pool as-is; each
	// returns its per-session measurements in session order, and the
	// merge below replays the sequential accumulation order — identical
	// output for any Workers value.
	type cellKey struct{ nSessions, run int }
	var cells []cellKey
	for _, nSessions := range opts.SessionCounts {
		for run := 0; run < opts.Runs; run++ {
			cells = append(cells, cellKey{nSessions: nSessions, run: run})
		}
	}
	type sessOut struct {
		priority     int
		lo, hi       float64
		imp, helpers float64
	}
	outs, err := par.MapErr(opts.Workers, len(cells), func(ci int) ([]sessOut, error) {
		nSessions := cells[ci].nSessions
		r := rand.New(rand.NewSource(opts.Seed + int64(1000*nSessions+cells[ci].run)))
		perm := r.Perm(opts.Hosts)
		sc := pool.NewScheduler(sched.Config{})
		type info struct {
			s    *sched.Session
			base float64
		}
		var infos []info
		sess := make([]sessOut, 0, nSessions)
		for i := 0; i < nSessions; i++ {
			nodes := perm[i*opts.GroupSize : (i+1)*opts.GroupSize]
			root, members := nodes[0], nodes[1:]
			// Per-session baselines on the unloaded pool.
			base, err := pool.PlanSession(root, members, core.PlanOptions{NoHelpers: true})
			if err != nil {
				return nil, err
			}
			hPlain := base.MaxHeight(pool.TrueLatency)
			lower, err := pool.PlanSession(root, members, core.PlanOptions{NoHelpers: true, Adjust: true})
			if err != nil {
				return nil, err
			}
			upper, err := pool.PlanSession(root, members, core.PlanOptions{Mode: core.Leafset, Adjust: true})
			if err != nil {
				return nil, err
			}
			sess = append(sess, sessOut{
				lo: alm.Improvement(hPlain, lower.MaxHeight(pool.TrueLatency)),
				hi: alm.Improvement(hPlain, upper.MaxHeight(pool.TrueLatency)),
			})
			s := &sched.Session{
				ID:       sched.SessionID(i + 1),
				Priority: 1 + r.Intn(3),
				Root:     root,
				Members:  append([]int(nil), members...),
			}
			if err := sc.AddSession(s); err != nil {
				return nil, err
			}
			infos = append(infos, info{s: s, base: hPlain})
		}
		if _, err := sc.Stabilize(); err != nil {
			return nil, err
		}
		if err := sc.Registry().CheckInvariants(); err != nil {
			return nil, err
		}
		for i, in := range infos {
			sess[i].priority = in.s.Priority
			sess[i].imp = alm.Improvement(in.base, in.s.Tree.MaxHeight(pool.TrueLatency))
			sess[i].helpers = float64(in.s.HelperCount())
		}
		return sess, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Fig10Result{Opts: opts}
	ci := 0
	for _, nSessions := range opts.SessionCounts {
		var row Fig10Row
		row.Sessions = nSessions
		var impSum, helpSum [4]float64
		var impCount [4]int
		var loSum, hiSum float64
		var loCount int
		for run := 0; run < opts.Runs; run++ {
			sess := outs[ci]
			ci++
			for _, so := range sess {
				loSum += so.lo
				hiSum += so.hi
				loCount++
			}
			for _, so := range sess {
				impSum[so.priority] += so.imp
				helpSum[so.priority] += so.helpers
				impCount[so.priority]++
			}
		}
		for p := 1; p <= 3; p++ {
			if impCount[p] > 0 {
				row.Improvement[p] = impSum[p] / float64(impCount[p])
				row.Helpers[p] = helpSum[p] / float64(impCount[p])
			}
		}
		if loCount > 0 {
			row.LowerBound = loSum / float64(loCount)
			row.UpperBound = hiSum / float64(loCount)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Tables renders Figure 10 (a) improvements and (b) helper counts.
func (r *Fig10Result) Tables() []Table {
	a := Table{
		Title: "Figure 10(a): improvement over AMCast by priority vs number of sessions",
		Columns: []string{"sessions", "prio 1", "prio 2", "prio 3",
			"lower bound (AMCast+adju)", "upper bound (Leafset+adju alone)"},
		Note: "paper shape: all classes fall between the bounds; performance decreases " +
			"as sessions multiply; priority 1 sustains the most improvement",
	}
	b := Table{
		Title:   "Figure 10(b): average helper nodes per session by priority",
		Columns: []string{"sessions", "prio 1", "prio 2", "prio 3"},
		Note: "paper shape: lower-priority sessions lose more helpers as competition " +
			"intensifies",
	}
	for _, row := range r.Rows {
		a.Rows = append(a.Rows, []string{
			d(row.Sessions),
			f3(row.Improvement[1]), f3(row.Improvement[2]), f3(row.Improvement[3]),
			f3(row.LowerBound), f3(row.UpperBound),
		})
		b.Rows = append(b.Rows, []string{
			d(row.Sessions),
			f1(row.Helpers[1]), f1(row.Helpers[2]), f1(row.Helpers[3]),
		})
	}
	return []Table{a, b}
}
