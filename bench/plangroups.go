package main

import (
	"math/rand"

	"p2ppool/internal/alm"
	"p2ppool/internal/core"
	"p2ppool/internal/topology"
)

// runPlanGroups is the planner workload, the paper's Figure 8 use of
// it: on a small transit-stub pool, rosters of each group size are
// planned through Pool.PlanSession (AMCast baseline, Critical+adjust,
// Leafset+adjust) and the same problems through the alm functions
// directly (AMCast, PlanWithHelpers, Adjust, Repair). No ledger, no
// event loop. op = plan; refused is always 0 — a plan that errors,
// fails validation or breaches a degree bound is an error.
func runPlanGroups(e *env) (*outcome, error) {
	sz := e.sz.Plan
	o := newOutcome()

	// --- set-up: the pool, and pre-drawn rosters ---
	top := topology.DefaultConfig()
	top.Hosts = sz.Hosts
	top.Seed = poolSeed
	top.Workers = e.workers
	var pool *core.Pool
	var err error
	e.tr.span(kCoreBuild, func() {
		pool, err = core.BuildFast(core.Options{Topology: top, Seed: poolSeed, Workers: e.workers})
	})
	if err != nil {
		return nil, err
	}
	type roster struct {
		root    int
		members []int
	}
	var rosters []roster
	r := rand.New(rand.NewSource(e.seed*1000 + 11))
	for _, g := range sz.Groups {
		// Rosters of one size are consecutive blocks of a shuffled pool, so
		// every seed's rosters cover the hosts evenly: which hosts a seed
		// happens to pick is the largest source of cost variance between
		// seeds, and it says nothing about the code.
		var perm []int
		for i := 0; i < sz.Rosters; i++ {
			if len(perm) < g {
				perm = r.Perm(sz.Hosts)
			}
			rosters = append(rosters, roster{root: perm[0], members: perm[1:g]})
			perm = perm[g:]
		}
	}
	lat := e.countLatency(pool.TrueLatency)

	// --- timed: every roster, every planner ---
	type planned struct {
		what string
		t    *alm.Tree
	}
	var trees []planned
	var gains []float64
	moves, helpers := 0, 0
	e.startTimed()
	plan := func(what string, k key, fn func() (*alm.Tree, error)) *alm.Tree {
		var t *alm.Tree
		var err error
		e.tr.span(k, func() { t, err = fn() })
		o.ops++
		if err != nil {
			o.fail("%s: %v", what, err)
			return nil
		}
		trees = append(trees, planned{what, t})
		return t
	}
	for _, ro := range rosters {
		ro := ro
		session := func(opt core.PlanOptions) func() (*alm.Tree, error) {
			return func() (*alm.Tree, error) { return pool.PlanSession(ro.root, ro.members, opt) }
		}
		base := plan("PlanSession/NoHelpers", kCorePlan, session(core.PlanOptions{NoHelpers: true}))
		crit := plan("PlanSession/Critical+adjust", kCorePlan, session(core.PlanOptions{Mode: core.Critical, Adjust: true}))
		leaf := plan("PlanSession/Leafset+adjust", kCorePlan, session(core.PlanOptions{Mode: core.Leafset, Adjust: true}))
		if base != nil && crit != nil && leaf != nil {
			h := base.MaxHeight(pool.TrueLatency)
			gains = append(gains, alm.Improvement(h, crit.MaxHeight(pool.TrueLatency)), alm.Improvement(h, leaf.MaxHeight(pool.TrueLatency)))
		}

		// The same problem through the planner's own entry points.
		prob := alm.Problem{Root: ro.root, Members: ro.members, Latency: lat, Degree: pool.DegreeBound}
		plan("alm.AMCast", kAlmAMCast, func() (*alm.Tree, error) { return alm.AMCast(prob) })
		in := make(map[int]bool, len(ro.members)+1)
		in[ro.root] = true
		for _, m := range ro.members {
			in[m] = true
		}
		hs := alm.HelperSet{Radius: 100, ScoreLatency: pool.CoordLatency, MetricScore: true}
		for h := 0; h < sz.Hosts; h++ {
			if !in[h] {
				hs.Candidates = append(hs.Candidates, h)
			}
		}
		ht := plan("alm.PlanWithHelpers", kAlmHelpers, func() (*alm.Tree, error) { return alm.PlanWithHelpers(prob, hs) })
		if ht == nil {
			continue
		}
		helpers += ht.Size() - len(ro.members) - 1
		e.tr.span(kAlmAdjust, func() { moves += alm.Adjust(ht, lat, pool.DegreeBound) })
		// Repair after losing the first recruited helper (or, with none
		// recruited, the first member that relays): the control plane's
		// use of the same layer.
		dead := -1
		for _, v := range ht.Nodes() {
			if v != ht.Root && len(ht.Children(v)) > 0 && (dead < 0 || (!in[v] && in[dead])) {
				dead = v
			}
		}
		if dead >= 0 {
			rt := ht.Clone()
			plan("alm.Repair", kAlmRepair, func() (*alm.Tree, error) {
				_, err := alm.Repair(rt, []int{dead}, lat, pool.DegreeBound)
				return rt, err
			})
		}
	}
	e.stopTimed()

	// --- harvest and checks: every planned tree, outside the timed section ---
	for _, p := range trees {
		checkTree(o, p.what, p.t, pool.DegreeBound)
		o.hash.tree(p.t)
	}
	sum := 0.0
	for _, g := range gains {
		sum += g
	}
	if len(gains) > 0 {
		o.exact["height_gain"] = sum / float64(len(gains))
	}
	o.exact["alm.adjust_moves"] = float64(moves)
	o.exact["alm.helpers_used"] = float64(helpers)
	return o, nil
}
