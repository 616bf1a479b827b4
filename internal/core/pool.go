// Package core assembles the paper's primary contribution: the P2P
// resource pool. A pool is a population of desktop-grade hosts on a
// wide-area topology, joined into a DHT ring, with SOMO aggregating a
// continuously refreshed database of every member's resources —
// network coordinates (Section 4.1), access bottleneck bandwidths
// (Section 4.2) and degree availability (Section 5.3) — that task
// managers query to plan and optimize ALM sessions.
//
// The pool comes in two constructions with one surface:
//
//   - BuildFast computes member metrics with the round-based solvers
//     (the deterministic equivalents of the live protocols) and no
//     event simulation; experiments at 1200 hosts use it.
//   - BuildLive runs the full protocol stack — DHT heartbeats, SOMO
//     gather, coordinate estimators, packet-pair probers — on the
//     discrete-event engine; integration tests and the monitoring
//     example use it.
package core

import (
	"fmt"
	"math/rand"
	"sort"

	"p2ppool/internal/alm"
	"p2ppool/internal/bandwidth"
	"p2ppool/internal/coords"
	"p2ppool/internal/dht"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/netmodel"
	"p2ppool/internal/sched"
	"p2ppool/internal/somo"
	"p2ppool/internal/topology"
	"p2ppool/internal/transport"
)

// Status is one member's entry in the resource database — the report
// each node publishes to SOMO (paper Figure 7, extended with the
// degree table of Figure 9 at the scheduler layer).
type Status struct {
	Host        int
	Coord       coords.Vector
	UpKbps      float64
	DownKbps    float64
	DegreeBound int
}

// solverLeafsetMax is the host count up to which BuildFast computes
// member coordinates with the round-based leafset relaxation (the
// deterministic equivalent of the live PIC protocol, run as a wavefront
// over the workers since each round's solves feed the next node's
// references in order). It covers the paper's sizes and the established
// scale rows; past it the relaxation dominates build time and BuildFast
// switches to the landmark GNP solve, whose per-host solves are
// independent and fan out over the workers.
const solverLeafsetMax = 12000

// coordDim is the dimension member coordinates are embedded in, by both
// constructions.
const coordDim = 7

// Options configures pool construction.
type Options struct {
	// Topology generates the underlay; zero value means the paper's
	// default (600 routers, 1200 hosts).
	Topology topology.Config
	// LeafsetRadius is the DHT leafset radius (per side). The paper's
	// metric quality results use a total leafset of 32, i.e. radius 16.
	LeafsetRadius int
	// CoordRounds is the relaxation round count for fast construction.
	CoordRounds int
	// Seed drives all pool-level randomness.
	Seed int64
	// Workers bounds construction parallelism (the topology's all-pairs
	// shortest paths and the coordinate solve); <= 0 means
	// runtime.NumCPU(). The built pool is identical for any worker count.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Topology.Hosts == 0 {
		top := topology.DefaultConfig()
		top.Seed = o.Seed
		o.Topology = top
	}
	if o.Topology.Workers == 0 {
		o.Topology.Workers = o.Workers
	}
	if o.LeafsetRadius <= 0 {
		o.LeafsetRadius = 16
	}
	if o.CoordRounds <= 0 {
		o.CoordRounds = 15
	}
	return o
}

// Pool is the assembled resource pool.
type Pool struct {
	opts  Options
	Net   *topology.Network
	Model *netmodel.Model

	// Degrees are each host's degree bound (the paper's 2^-i
	// distribution over [2,9]).
	Degrees []int

	// Coords and Bandwidth are the current per-host estimates as the
	// pool's database sees them.
	Coords    []coords.Vector
	Bandwidth []bandwidth.Estimates

	// Live-mode machinery (nil in fast mode).
	Engine *eventsim.Engine
	Sim    *transport.Sim
	Nodes  []*dht.Node
	Agents []*somo.Agent
}

// BuildFast constructs the pool with round-based metric computation:
// leafset neighbor sets are derived from a random ring (exactly the
// membership structure a DHT yields), coordinates from SolveLeafset,
// and bandwidth estimates from one full probing round.
func BuildFast(opts Options) (*Pool, error) {
	opts = opts.withDefaults()
	net, err := topology.Generate(opts.Topology)
	if err != nil {
		return nil, err
	}
	model, err := netmodel.New(net.NumHosts(), netmodel.Options{Seed: opts.Seed + 1})
	if err != nil {
		return nil, err
	}
	p := &Pool{opts: opts, Net: net, Model: model}
	r := rand.New(rand.NewSource(opts.Seed + 2))
	p.Degrees = alm.PaperDegrees(net.NumHosts(), r)

	neighbors := RingNeighbors(net.NumHosts(), 2*opts.LeafsetRadius, r)
	if net.NumHosts() > solverLeafsetMax {
		p.Coords, err = solveGNPHosts(net, opts)
	} else {
		p.Coords, err = coords.SolveLeafset(net.Latency, net.NumHosts(), neighbors, coords.LeafsetConfig{
			Dim:    coordDim,
			Rounds: opts.CoordRounds,
			Seed:   opts.Seed + 3,
			// A full leafset's worth of early joiners can all measure each
			// other, forming the bootstrap core.
			Core:    2*opts.LeafsetRadius + 1,
			Workers: opts.Workers,
		})
	}
	if err != nil {
		return nil, err
	}
	p.Bandwidth = bandwidth.EstimateAll(model, neighbors, 1500, rand.New(rand.NewSource(opts.Seed+4)))
	return p, nil
}

// solveGNPHosts computes member coordinates with the landmark GNP
// solve: 32 landmark hosts measure each other and everyone solves
// against them. Host solves are independent, so they fan out over
// opts.Workers with pre-drawn starting points — the result is
// byte-identical for any worker count.
func solveGNPHosts(net *topology.Network, opts Options) ([]coords.Vector, error) {
	n := net.NumHosts()
	r := rand.New(rand.NewSource(opts.Seed + 3))
	nLM := 32
	if nLM > n {
		nLM = n
	}
	lms := r.Perm(n)[:nLM]
	sort.Ints(lms)
	spread := 0.0
	for _, a := range lms {
		for _, b := range lms {
			if d := net.Latency(a, b); d > spread {
				spread = d
			}
		}
	}
	return coords.SolveGNP(net.Latency, n, lms, coords.GNPConfig{
		Dim:           coordDim,
		Rounds:        24,
		Seed:          opts.Seed + 3,
		Spread:        spread / 2,
		RelativeError: true,
		MaxIter:       1600,
		Workers:       opts.Workers,
	})
}

// RingNeighbors places hosts on a random ring and returns each host's
// L closest ring neighbors — the leafset membership a DHT with random
// IDs produces (random with respect to the physical topology).
func RingNeighbors(n, L int, r *rand.Rand) func(i int) []int {
	perm := r.Perm(n) // perm[pos] = host occupying ring position pos
	posOf := make([]int, n)
	for pos, h := range perm {
		posOf[h] = pos
	}
	if L > n-1 {
		L = n - 1
	}
	half := L / 2
	return func(h int) []int {
		pos := posOf[h]
		out := make([]int, 0, L)
		for k := 1; k <= half; k++ {
			out = append(out, perm[(pos+k)%n], perm[(pos-k+n)%n])
		}
		for k := half + 1; len(out) < L; k++ {
			out = append(out, perm[(pos+k)%n])
		}
		return out
	}
}

// LiveOptions extends Options for full-protocol construction. Live
// runs are heavier than fast ones; tests use 64-256 hosts.
type LiveOptions struct {
	Options
	SOMO somo.Config
	// Converge runs the engine this long after construction (0 means
	// the caller drives the engine).
	Converge eventsim.Time
}

// BuildLive constructs the pool with every protocol running on the
// event engine: the ring is pre-built (static membership, as the
// paper's experiments assume), SOMO gathers Status reports, coordinate
// estimators refine off heartbeats and probers measure packet pairs.
func BuildLive(opts LiveOptions) (*Pool, error) {
	base := opts.Options.withDefaults()
	net, err := topology.Generate(base.Topology)
	if err != nil {
		return nil, err
	}
	model, err := netmodel.New(net.NumHosts(), netmodel.Options{Seed: base.Seed + 1})
	if err != nil {
		return nil, err
	}
	n := net.NumHosts()
	p := &Pool{opts: base, Net: net, Model: model}
	r := rand.New(rand.NewSource(base.Seed + 2))
	p.Degrees = alm.PaperDegrees(n, r)

	p.Engine = eventsim.New(base.Seed + 5)
	p.Sim = transport.NewSim(p.Engine, transport.SimOptions{
		Latency:    net.Latency,
		Bottleneck: model.PathBottleneck,
	})
	p.Nodes, _, err = Ring(OnNet(p.Sim), dht.RandomIDs(n, r), dht.Config{LeafsetRadius: base.LeafsetRadius})
	if err != nil {
		return nil, err
	}
	p.Coords = make([]coords.Vector, n)
	p.Bandwidth = make([]bandwidth.Estimates, n)
	p.Agents = make([]*somo.Agent, n)
	for i, nd := range p.Nodes {
		p.Agents[i] = p.attachStack(nd, opts.SOMO, 100)
	}
	if opts.Converge > 0 {
		p.Engine.RunUntil(opts.Converge)
	}
	return p, nil
}

// NumHosts returns the pool population size.
func (p *Pool) NumHosts() int { return p.Net.NumHosts() }

// CoordLatency predicts the latency between two hosts from their
// coordinates — the planner's knowledge in "Leafset" mode.
func (p *Pool) CoordLatency(a, b int) float64 {
	return coords.Dist(p.Coords[a], p.Coords[b])
}

// TrueLatency returns the underlay latency oracle.
func (p *Pool) TrueLatency(a, b int) float64 { return p.Net.Latency(a, b) }

// DegreeBound returns host h's degree bound.
func (p *Pool) DegreeBound(h int) int { return p.Degrees[h] }

// Snapshot assembles the pool's resource database. In live mode it
// reads the SOMO root's gathered records; in fast mode it synthesizes
// the equivalent from the computed estimates.
func (p *Pool) Snapshot() []Status {
	if view, ok := ReadRoot(p.Agents); ok {
		out := make([]Status, 0, len(view.Snapshot.Records))
		for _, rec := range view.Snapshot.Records {
			if st, ok := rec.Data.(Status); ok {
				out = append(out, st)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
		return out
	}
	out := make([]Status, p.NumHosts())
	for h := range out {
		out[h] = Status{
			Host:        h,
			Coord:       p.Coords[h],
			UpKbps:      p.Bandwidth[h].Up,
			DownKbps:    p.Bandwidth[h].Down,
			DegreeBound: p.Degrees[h],
		}
	}
	return out
}

// PlanMode selects the planner's latency knowledge.
type PlanMode int

const (
	// Critical plans with the true latency oracle (upper reference).
	Critical PlanMode = iota
	// Leafset plans with coordinate-predicted latencies for helper
	// decisions — the practical, fully distributed configuration.
	Leafset
)

// PlanOptions configures a single-session plan.
type PlanOptions struct {
	Mode PlanMode
	// Radius R for helper admission (paper: 50-150 works; default 100).
	Radius float64
	// Adjust applies the tree-improvement moves after planning.
	Adjust bool
	// NoHelpers disables pool recruitment (the AMCast baseline).
	NoHelpers bool
	// Scoring selects the candidate-ranking heuristic (ablation).
	Scoring alm.Scoring
	// VerifyTop tunes Leafset-mode candidate verification (0 means the
	// alm default).
	VerifyTop int
}

// PlanSession plans one ALM session over the pool: members plus
// recruited helpers, returning the tree. Member-to-member latencies
// are always true measurements (small groups ping each other); helper
// evaluation uses the mode's knowledge.
func (p *Pool) PlanSession(root int, members []int, opt PlanOptions) (*alm.Tree, error) {
	if opt.Radius <= 0 {
		opt.Radius = 100
	}
	// Tree links are always built on measured latencies: members ping
	// each other directly, and a helper's latency is measured when the
	// task manager contacts it to reserve. What differs by mode is the
	// knowledge used to JUDGE VICINITY of candidate helpers (the paper:
	// "the one used the leafset estimation for vicinity judgment").
	prob := alm.Problem{
		Root:    root,
		Members: append([]int(nil), members...),
		Latency: p.TrueLatency,
		Degree:  p.DegreeBound,
	}
	hs := alm.HelperSet{
		Radius:    opt.Radius,
		Scoring:   opt.Scoring,
		VerifyTop: opt.VerifyTop,
		// Both vicinity-knowledge sources here are metrics — topology
		// shortest-path latency and Euclidean coordinate distance — so
		// the planner may use its indexed candidate search.
		MetricScore: true,
	}
	if opt.Mode == Leafset {
		hs.ScoreLatency = p.CoordLatency
	}
	if !opt.NoHelpers {
		// Every host: the planner drops the session's own.
		hs.Candidates = make([]int, p.NumHosts())
		for h := range hs.Candidates {
			hs.Candidates[h] = h
		}
	}
	tree, err := alm.PlanWithHelpers(prob, hs)
	if err != nil {
		return nil, err
	}
	if opt.Adjust {
		// Every node in the drawn tree is a session participant whose
		// latencies are measured, so adjustment runs on true latencies;
		// this is why it is "remarkably effective especially for
		// Leafset" (Section 5.2) — it repairs helper choices the
		// coordinate estimates got wrong.
		alm.Adjust(tree, p.TrueLatency, p.DegreeBound)
	}
	return tree, nil
}

// NewScheduler creates a market-driven multi-session scheduler over
// this pool, planning with the pool's coordinate knowledge (the
// practical Leafset+adjust configuration of Section 5.3).
func (p *Pool) NewScheduler(cfg sched.Config) *sched.Scheduler {
	if cfg.ScoreLatency == nil {
		cfg.ScoreLatency = p.CoordLatency
		// Coordinate distance is Euclidean and the pool's tree latency
		// is shortest-path — both metrics, so indexed helper search is
		// exact here.
		cfg.MetricScore = true
	}
	return sched.NewScheduler(p.Degrees, p.TrueLatency, cfg)
}

// OptimizeRoot implements the paper's self-optimizing ID swap
// (Section 3.2): identify the most capable member by the given score,
// and if it does not already host the SOMO root, swap ring IDs with
// the current root host by having both leave and rejoin under each
// other's IDs. Live pools only.
func (p *Pool) OptimizeRoot(score func(host int) float64) (swapped bool, err error) {
	if p.Agents == nil {
		return false, fmt.Errorf("core: OptimizeRoot requires a live pool")
	}
	rootIdx := LiveRoot(p.Agents)
	if rootIdx == -1 {
		return false, fmt.Errorf("core: no live root found")
	}
	bestIdx := -1
	var bestScore float64
	for i, nd := range p.Nodes {
		if !nd.Active() {
			continue
		}
		s := score(int(nd.Self().Addr))
		if bestIdx == -1 || s > bestScore {
			bestIdx, bestScore = i, s
		}
	}
	if bestIdx == rootIdx || bestIdx == -1 {
		return false, nil
	}
	rootNode := p.Nodes[rootIdx]
	bestNode := p.Nodes[bestIdx]
	rootID := rootNode.Self().ID
	bestID := bestNode.Self().ID
	rootAddr := rootNode.Self().Addr
	bestAddr := bestNode.Self().Addr
	seed := p.Nodes[pickOther(len(p.Nodes), rootIdx, bestIdx)].Self()

	// Both leave, then rejoin with exchanged IDs. The SOMO agents on
	// the old nodes are stopped; fresh nodes get fresh stacks under the
	// configuration the pool was built with.
	cfg := p.Agents[rootIdx].Config()
	p.Agents[rootIdx].Stop()
	p.Agents[bestIdx].Stop()
	rootNode.Leave()
	bestNode.Leave()

	newRoot := dht.NewNode(p.Sim, bestID, rootAddr, rootNode.Config())
	newBest := dht.NewNode(p.Sim, rootID, bestAddr, bestNode.Config())
	p.Nodes[rootIdx] = newRoot
	p.Nodes[bestIdx] = newBest
	p.Agents[rootIdx] = p.attachStack(newRoot, cfg, 1000)
	p.Agents[bestIdx] = p.attachStack(newBest, cfg, 1000)
	newRoot.Join(seed)
	newBest.Join(seed)
	return true, nil
}

// attachStack is the per-member stage of the live assembly: it wires
// the coordinate estimator, the packet-pair prober and the SOMO agent
// publishing this member's Status onto nd, in that order. BuildLive
// runs it over the ring and OptimizeRoot over the two re-joined nodes;
// seedBase keeps a re-joined member's estimator off the random stream
// its first incarnation drew from.
func (p *Pool) attachStack(nd *dht.Node, cfg somo.Config, seedBase int64) *somo.Agent {
	host := int(nd.Self().Addr)
	est := coords.NewEstimator(nd, coords.EstimatorOptions{
		Dim:  coordDim,
		Seed: p.opts.Seed + seedBase + int64(host),
	})
	prober := bandwidth.NewProber(nd, bandwidth.ProberOptions{})
	return somo.NewAgent(nd, cfg, func() interface{} {
		// Publish the live estimates; also mirror them into the
		// pool-level arrays so the fast query path sees them.
		p.Coords[host] = est.Coord()
		p.Bandwidth[host] = bandwidth.Estimates{
			Up:   prober.UpEstimate(),
			Down: prober.DownEstimate(),
		}
		return Status{
			Host:        host,
			Coord:       est.Coord(),
			UpKbps:      prober.UpEstimate(),
			DownKbps:    prober.DownEstimate(),
			DegreeBound: p.Degrees[host],
		}
	})
}

func pickOther(n, a, b int) int {
	for i := 0; i < n; i++ {
		if i != a && i != b {
			return i
		}
	}
	return a
}
