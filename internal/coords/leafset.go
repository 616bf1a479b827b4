package coords

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"p2ppool/internal/par"
)

// LeafsetConfig parameterizes the distributed leafset-based solver.
type LeafsetConfig struct {
	// Dim is the embedding dimension.
	Dim int
	// Rounds of relaxation; each round every node refines its own
	// coordinate against its current neighbors once (this mirrors the
	// continuous heartbeat-driven refinement of the live protocol).
	Rounds int
	// Seed for initial coordinates.
	Seed int64
	// Core overrides the bootstrap core size (default 2*(Dim+1): a full
	// leafset's worth of mutually measuring members when possible).
	Core int
	// Simultaneous disables the incremental-join bootstrap and starts
	// every node from a random coordinate at once — the ablation that
	// shows why incremental placement matters.
	Simultaneous bool
	// Workers bounds the goroutines the join and refinement solves run
	// on; <= 0 means runtime.NumCPU(). Every random draw is made
	// sequentially before the fan-out and each solve reads only versions
	// finished before its level starts, so the result is identical for
	// any worker count.
	Workers int
}

func (c LeafsetConfig) withDefaults() LeafsetConfig {
	if c.Dim <= 0 {
		c.Dim = 5
	}
	if c.Rounds <= 0 {
		c.Rounds = 30
	}
	if c.Core <= 0 {
		c.Core = 2 * (c.Dim + 1)
	}
	return c
}

const (
	// leafsetSpread is the side of the random initial box, on the order
	// of the network diameter in milliseconds.
	leafsetSpread = 400
	// leafsetDamping moves each node only this fraction of the way to
	// its locally optimal coordinate per round. It suppresses the
	// oscillation of simultaneous updates; the live protocol gets the
	// same effect from unsynchronized heartbeats.
	leafsetDamping = 0.5
	// leafsetEvalsPerDim bounds each per-node simplex refinement.
	leafsetEvalsPerDim = 120
	// leafsetCoreRounds is how often the bootstrap core refines its
	// members against each other before anyone else joins.
	leafsetCoreRounds = 15
)

// SolveLeafset computes coordinates for hosts 0..n-1 with the paper's
// leafset scheme: no landmarks; every node refines its own coordinate
// against the measured delays to its leafset neighbors (neighbors(i)
// returns host indices). This round-based form is the deterministic,
// fast-converging equivalent of the heartbeat protocol in Estimator,
// and is what the Figure 4 experiment runs at scale.
//
// The solve models the way a real ring bootstraps (and the way PIC [3],
// which the paper identifies with its scheme, computes coordinates):
// nodes join one at a time. While the ring is small every member is in
// every other's leafset, so the early joiners solve a mutually
// consistent core exactly like GNP's landmark phase; each later joiner
// fits against the already-placed members of its leafset. A pure
// simultaneous relaxation (all nodes moving at once from random
// positions) converges to folded embeddings an order of magnitude
// worse — set Simultaneous to observe that ablation.
//
// The result is that of the sequential algorithm — a core refined
// serially, joins in a random order, then rounds that update every
// node in place in host order — but the joins and rounds run as a
// wavefront on cfg.Workers goroutines (DESIGN.md §5): a solve runs as
// soon as every coordinate version it reads is final, so lat is called
// concurrently and must be safe for that. neighbors is called once per
// host, up front; a neighbor outside [0, n) is an error.
func SolveLeafset(lat LatencyFunc, n int, neighbors func(i int) []int, cfg LeafsetConfig) ([]Vector, error) {
	cfg = cfg.withDefaults()
	p, err := planLeafset(n, neighbors, cfg)
	if err != nil {
		return nil, err
	}
	return p.run(lat, par.Workers(cfg.Workers)), nil
}

// LeafsetLevels returns how many wavefront levels SolveLeafset runs for
// these arguments after its serial core: the length of the longest
// chain of solves each reading another's result. It calls neighbors
// and draws randomness exactly as SolveLeafset does, and solves nothing.
func LeafsetLevels(n int, neighbors func(i int) []int, cfg LeafsetConfig) (int, error) {
	p, err := planLeafset(n, neighbors, cfg.withDefaults())
	if err != nil {
		return 0, err
	}
	return len(p.levels), nil
}

// leafsetPlan is a SolveLeafset call with every input of every solve
// fixed. Version v of a host's coordinate is row i of planes[v]:
// version 0 is where the join left it (the core's, or a random start
// under Simultaneous), version v its value after refinement round v.
// Solve (v, i) produces version v of host i and is task v*n+i; a core
// host's version 0 is produced before the wavefront and is no task.
type leafsetPlan struct {
	n, dim int
	nbs    [][]int // each host's neighbors, read once
	core   []int   // the bootstrap core, in join order
	joins  [][]int // a joiner's references, in the order it adds them
	planes [][]float64
	// levels holds every solve's task by level, in task order; the
	// solves of a level read only versions produced by lower levels or
	// the core.
	levels [][]int32
}

// planLeafset reads the neighbor lists, draws all randomness in the
// order the sequential algorithm draws it (the join order, the core's
// start points, then per joiner its fallback samples and its start
// point; none depends on a coordinate value), and levels the solves.
func planLeafset(n int, neighbors func(i int) []int, cfg LeafsetConfig) (*leafsetPlan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("coords: n must be positive, got %d", n)
	}
	p := &leafsetPlan{n: n, dim: cfg.Dim, nbs: make([][]int, n), planes: make([][]float64, cfg.Rounds+1)}
	for i := range p.nbs {
		p.nbs[i] = neighbors(i)
		for _, x := range p.nbs[i] {
			if x < 0 || x >= n {
				return nil, fmt.Errorf("coords: host %d has neighbor %d outside [0, %d)", i, x, n)
			}
		}
	}
	p.planes[0] = make([]float64, n*cfg.Dim)
	r := rand.New(rand.NewSource(cfg.Seed))
	var order []int
	if cfg.Simultaneous {
		for i := 0; i < n; i++ {
			fillRandom(p.row(0, i), leafsetSpread, r)
		}
	} else {
		order = r.Perm(n)
		p.core = order[:min(cfg.Core, n)]
		for _, i := range p.core {
			fillRandom(p.row(0, i), leafsetSpread, r)
		}
		// A joiner fits against its placed leafset members; one whose
		// leafset has too few falls back to a random placed sample (its
		// leafset at join time consisted of whoever was in the ring).
		placed := make([]bool, n)
		for _, i := range p.core {
			placed[i] = true
		}
		placedList := append([]int(nil), p.core...)
		p.joins = make([][]int, n)
		for _, i := range order[len(p.core):] {
			var refs []int
			for _, x := range p.nbs[i] {
				if placed[x] {
					refs = append(refs, x)
				}
			}
			for len(refs) < cfg.Dim+1 && len(refs) < len(placedList) {
				refs = append(refs, placedList[r.Intn(len(placedList))])
			}
			fillRandom(p.row(0, i), leafsetSpread, r)
			p.joins[i] = refs
			placed[i] = true
			placedList = append(placedList, i)
		}
	}

	// level[t] is one more than the highest level among the versions
	// task t reads; a version the core or the start draw produced reads
	// as level -1.
	level := make([]int32, (cfg.Rounds+1)*n)
	for i := 0; i < n; i++ {
		level[i] = -1
	}
	for _, i := range order[len(p.core):] {
		l := int32(-1)
		for _, x := range p.joins[i] {
			l = max(l, level[x])
		}
		level[i] = l + 1
	}
	// Round v updates hosts in index order in place, so solve (v, i)
	// reads version v of a neighbor x < i, version v-1 of x >= i, and
	// starts from version v-1 of i.
	for v := 1; v <= cfg.Rounds; v++ {
		for i := 0; i < n; i++ {
			l := level[(v-1)*n+i]
			for _, x := range p.nbs[i] {
				if x < i {
					l = max(l, level[v*n+x])
				} else {
					l = max(l, level[(v-1)*n+x])
				}
			}
			level[v*n+i] = l + 1
		}
	}
	for t, l := range level {
		if l < 0 {
			continue
		}
		for int(l) >= len(p.levels) {
			p.levels = append(p.levels, nil)
		}
		p.levels[l] = append(p.levels[l], int32(t))
	}
	return p, nil
}

// row is version v of host i's coordinate.
func (p *leafsetPlan) row(v, i int) []float64 {
	return p.planes[v][i*p.dim : (i+1)*p.dim : (i+1)*p.dim]
}

// run refines the core serially, then runs the levels in order, each
// spread over at most workers goroutines that own one fit apiece, and
// returns the last version.
func (p *leafsetPlan) run(lat LatencyFunc, workers int) []Vector {
	for v := 1; v < len(p.planes); v++ {
		p.planes[v] = make([]float64, p.n*p.dim)
	}
	fits := make([]*fit, workers)
	for w := range fits {
		fits[w] = newFit(p.dim, false, leafsetEvalsPerDim*p.dim)
	}

	// The bootstrap core heartbeats mutually (a small ring is a clique
	// of leafsets): iterate to mutual consistency.
	f := fits[0]
	for round := 0; round < leafsetCoreRounds; round++ {
		for _, i := range p.core {
			f.reset()
			for _, j := range p.core {
				if j != i {
					f.add(p.row(0, j), lat(i, j))
				}
			}
			copy(p.row(0, i), f.solve(p.row(0, i)))
		}
	}

	// ForEach hands out worker indices, not tasks, so that a fit is never
	// shared; the workers deal the level's tasks out among themselves.
	for _, tasks := range p.levels {
		var next atomic.Int64
		w := min(workers, len(tasks))
		par.ForEach(w, w, func(worker int) {
			for {
				k := next.Add(1) - 1
				if k >= int64(len(tasks)) {
					return
				}
				p.solve(fits[worker], lat, int(tasks[k]))
			}
		})
	}

	out := make([]Vector, p.n)
	for i := range out {
		out[i] = p.row(len(p.planes)-1, i)
	}
	return out
}

// solve runs task t: a join (version 0) or one refinement step.
func (p *leafsetPlan) solve(f *fit, lat LatencyFunc, t int) {
	v, i := t/p.n, t%p.n
	dst := p.row(v, i)
	f.reset()
	if v == 0 {
		for _, x := range p.joins[i] {
			f.add(p.row(0, x), lat(i, x))
		}
		copy(dst, f.solve(dst))
		return
	}
	cur := p.row(v-1, i)
	if len(p.nbs[i]) == 0 {
		copy(dst, cur)
		return
	}
	for _, x := range p.nbs[i] {
		if x < i {
			f.add(p.row(v, x), lat(i, x))
		} else {
			f.add(p.row(v-1, x), lat(i, x))
		}
	}
	next := f.solve(cur)
	for d := range dst {
		dst[d] = cur[d] + leafsetDamping*(next[d]-cur[d])
	}
}
