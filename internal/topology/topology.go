// Package topology generates the two-layer transit-stub internetwork
// model the paper evaluates on (GT-ITM style, Zegura et al. [38]) and
// answers end-to-end latency queries over it.
//
// The paper's configuration: 600 routers — 24 transit routers and 576
// stub routers — with link latencies of 100 ms for intra-transit links,
// 25 ms for stub-transit links and 10 ms for intra-stub links; 1200 end
// systems attached to random stub routers with a 3–8 ms last hop.
// GT-ITM itself is an external tool; this package reproduces its
// two-level locality structure (which is what the ALM radius heuristic
// exploits) with the exact parameters above.
package topology

import (
	"fmt"
	"math/rand"

	"p2ppool/internal/par"
)

// Config parameterizes topology generation. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// TransitDomains is the number of top-level transit domains.
	TransitDomains int
	// TransitPerDomain is the number of transit routers per domain.
	TransitPerDomain int
	// StubDomainsPerTransit is the number of stub domains hanging off
	// each transit router.
	StubDomainsPerTransit int
	// StubPerDomain is the number of stub routers per stub domain.
	StubPerDomain int
	// Hosts is the number of end systems attached to stub routers.
	Hosts int

	// TransitLatency is the one-way latency in milliseconds of
	// transit-transit links (both intra- and inter-domain).
	TransitLatency float64
	// StubTransitLatency is the latency of the link joining a stub
	// domain's gateway router to its transit router.
	StubTransitLatency float64
	// StubLatency is the latency of intra-stub-domain links.
	StubLatency float64
	// LastHopMin and LastHopMax bound the uniformly drawn host
	// last-hop latency.
	LastHopMin float64
	LastHopMax float64

	// ExtraEdgeProb is the probability of adding each candidate
	// redundant edge inside a domain beyond the connectivity ring.
	ExtraEdgeProb float64

	// Seed drives all randomness; the same seed produces an identical
	// network.
	Seed int64

	// Workers bounds the goroutines used for the latency-oracle build
	// (all-pairs or landmark Dijkstra, coordinate solves) and host-pair
	// scans; <= 0 means runtime.NumCPU(). The generated network and
	// every latency it reports are identical for any worker count.
	Workers int

	// Oracle selects the latency-oracle implementation (see OracleKind).
	// The zero value, OracleAuto, keeps the exact all-pairs table for
	// small router graphs (the paper's 600-router default included) and
	// switches to the coordinate embedding past autoExactMax routers,
	// where the O(R²) table stops fitting.
	Oracle OracleKind
}

// DefaultConfig returns the paper's experimental topology: 24 transit
// routers (4 domains of 6), 576 stub routers (4 stub domains of 6 per
// transit router), 1200 hosts, 100/25/10 ms links, 3–8 ms last hop.
func DefaultConfig() Config {
	return Config{
		TransitDomains:        4,
		TransitPerDomain:      6,
		StubDomainsPerTransit: 4,
		StubPerDomain:         6,
		Hosts:                 1200,
		TransitLatency:        100,
		StubTransitLatency:    25,
		StubLatency:           10,
		LastHopMin:            3,
		LastHopMax:            8,
		ExtraEdgeProb:         0.3,
		Seed:                  1,
	}
}

// Validate checks the configuration for structural errors.
func (c Config) Validate() error {
	switch {
	case c.TransitDomains < 1:
		return fmt.Errorf("topology: TransitDomains must be >= 1, got %d", c.TransitDomains)
	case c.TransitPerDomain < 1:
		return fmt.Errorf("topology: TransitPerDomain must be >= 1, got %d", c.TransitPerDomain)
	case c.StubDomainsPerTransit < 1:
		return fmt.Errorf("topology: StubDomainsPerTransit must be >= 1, got %d", c.StubDomainsPerTransit)
	case c.StubPerDomain < 1:
		return fmt.Errorf("topology: StubPerDomain must be >= 1, got %d", c.StubPerDomain)
	case c.Hosts < 1:
		return fmt.Errorf("topology: Hosts must be >= 1, got %d", c.Hosts)
	case c.TransitLatency <= 0 || c.StubTransitLatency <= 0 || c.StubLatency <= 0:
		return fmt.Errorf("topology: link latencies must be positive")
	case c.LastHopMin <= 0 || c.LastHopMax < c.LastHopMin:
		return fmt.Errorf("topology: last hop range [%g,%g] invalid", c.LastHopMin, c.LastHopMax)
	case c.ExtraEdgeProb < 0 || c.ExtraEdgeProb > 1:
		return fmt.Errorf("topology: ExtraEdgeProb must be in [0,1], got %g", c.ExtraEdgeProb)
	case c.Oracle < OracleAuto || c.Oracle > OracleCoords:
		return fmt.Errorf("topology: unknown OracleKind %d", int(c.Oracle))
	}
	return nil
}

// NumTransit returns the total number of transit routers.
func (c Config) NumTransit() int { return c.TransitDomains * c.TransitPerDomain }

// NumStub returns the total number of stub routers.
func (c Config) NumStub() int {
	return c.NumTransit() * c.StubDomainsPerTransit * c.StubPerDomain
}

// NumRouters returns the total router count.
func (c Config) NumRouters() int { return c.NumTransit() + c.NumStub() }

// edge is a weighted adjacency entry in the router graph.
type edge struct {
	to  int
	lat float64
}

// Network is a generated transit-stub internetwork plus attached hosts.
// All latencies are one-way milliseconds; paths are symmetric.
type Network struct {
	cfg Config

	routers int
	adj     [][]edge

	// routerDomain maps router index -> domain label (transit domains
	// are 0..TransitDomains-1; stub domains continue from there).
	routerDomain []int
	// isTransit marks transit routers.
	isTransit []bool

	// hostRouter maps host index -> stub router it attaches to.
	hostRouter []int
	// lastHop is each host's access-link latency.
	lastHop []float64

	// oracle answers router-to-router latency queries; see oracle.go.
	oracle LatencyOracle
	// hostRow[h] aliases the exact oracle's row for hostRouter[h] so the
	// Latency hot path resolves host -> router-latency-row in one
	// indexed load. nil for the non-tabular oracles, which take the
	// generic path through the interface.
	hostRow [][]float64
}

// Generate builds a network from cfg. It is deterministic in cfg.Seed.
func Generate(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	n := &Network{
		cfg:          cfg,
		routers:      cfg.NumRouters(),
		routerDomain: make([]int, cfg.NumRouters()),
		isTransit:    make([]bool, cfg.NumRouters()),
	}
	n.adj = make([][]edge, n.routers)

	// Transit routers occupy indices [0, NumTransit); stub routers follow.
	numTransit := cfg.NumTransit()
	for i := 0; i < numTransit; i++ {
		n.isTransit[i] = true
		n.routerDomain[i] = i / cfg.TransitPerDomain
	}

	// Intra-transit-domain meshes.
	for d := 0; d < cfg.TransitDomains; d++ {
		base := d * cfg.TransitPerDomain
		n.buildDomain(r, base, cfg.TransitPerDomain, cfg.TransitLatency, cfg.ExtraEdgeProb)
	}

	// Inter-transit-domain links: a ring of domains plus one random
	// chord per domain, so the core stays connected and has redundancy.
	pickIn := func(d int) int { return d*cfg.TransitPerDomain + r.Intn(cfg.TransitPerDomain) }
	if cfg.TransitDomains > 1 {
		for d := 0; d < cfg.TransitDomains; d++ {
			next := (d + 1) % cfg.TransitDomains
			n.addEdge(pickIn(d), pickIn(next), cfg.TransitLatency)
		}
		if cfg.TransitDomains > 2 {
			for d := 0; d < cfg.TransitDomains; d++ {
				other := r.Intn(cfg.TransitDomains)
				if other != d {
					n.addEdge(pickIn(d), pickIn(other), cfg.TransitLatency)
				}
			}
		}
	}

	// Stub domains: StubDomainsPerTransit per transit router, each a
	// small connected graph whose gateway links to the transit router.
	stubIdx := numTransit
	domainLabel := cfg.TransitDomains
	for tr := 0; tr < numTransit; tr++ {
		for s := 0; s < cfg.StubDomainsPerTransit; s++ {
			base := stubIdx
			for k := 0; k < cfg.StubPerDomain; k++ {
				n.routerDomain[base+k] = domainLabel
			}
			n.buildDomain(r, base, cfg.StubPerDomain, cfg.StubLatency, cfg.ExtraEdgeProb)
			gateway := base + r.Intn(cfg.StubPerDomain)
			n.addEdge(gateway, tr, cfg.StubTransitLatency)
			stubIdx += cfg.StubPerDomain
			domainLabel++
		}
	}

	// Attach hosts to random stub routers.
	n.hostRouter = make([]int, cfg.Hosts)
	n.lastHop = make([]float64, cfg.Hosts)
	numStub := cfg.NumStub()
	for h := 0; h < cfg.Hosts; h++ {
		n.hostRouter[h] = numTransit + r.Intn(numStub)
		n.lastHop[h] = cfg.LastHopMin + r.Float64()*(cfg.LastHopMax-cfg.LastHopMin)
	}

	switch cfg.resolveOracle() {
	case OracleExact:
		ex := newExactOracle(n)
		n.oracle = ex
		n.hostRow = make([][]float64, cfg.Hosts)
		for h := 0; h < cfg.Hosts; h++ {
			n.hostRow[h] = ex.rows[n.hostRouter[h]]
		}
	case OracleCoords:
		n.oracle = newCoordsOracle(n)
	}
	return n, nil
}

// buildDomain wires routers [base, base+size) into a connected graph:
// a ring (or single edge for size 2) plus random redundant chords.
func (n *Network) buildDomain(r *rand.Rand, base, size int, lat, extraProb float64) {
	if size == 1 {
		return
	}
	for i := 0; i < size; i++ {
		j := (i + 1) % size
		if size == 2 && i == 1 {
			break // avoid duplicating the single edge
		}
		n.addEdge(base+i, base+j, lat)
	}
	for i := 0; i < size; i++ {
		for j := i + 2; j < size; j++ {
			if i == 0 && j == size-1 {
				continue // ring edge already present
			}
			if r.Float64() < extraProb {
				n.addEdge(base+i, base+j, lat)
			}
		}
	}
}

func (n *Network) addEdge(a, b int, lat float64) {
	n.adj[a] = append(n.adj[a], edge{to: b, lat: lat})
	n.adj[b] = append(n.adj[b], edge{to: a, lat: lat})
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node int
	dist float64
}

func pqLess(a, b pqItem) bool { return a.dist < b.dist }

// frontier is Dijkstra's queue: an unboxed 4-ary min-heap by pqLess
// (container/heap boxed every item, which dominated topology-build
// allocations). It makes the comparisons the generic heap it replaced
// made, in the same order (TestDijkstraMatchesReference), so ties pop
// as they did.
type frontier []pqItem

func (q *frontier) push(x pqItem) {
	s := append(*q, x)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) >> 2
		if !pqLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*q = s
}

func (q *frontier) pop() pqItem {
	s := *q
	top, last := s[0], len(s)-1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		first := i<<2 + 1
		if first >= last {
			break
		}
		min := first
		for c := first + 1; c < first+4 && c < last; c++ {
			if pqLess(s[c], s[min]) {
				min = c
			}
		}
		if !pqLess(s[min], s[i]) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	*q = s
	return top
}

// dijkstra runs single-source shortest paths on the router graph.
func (n *Network) dijkstra(src int) []float64 {
	const inf = 1e18
	dist := make([]float64, n.routers)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	q := make(frontier, 0, 64)
	q.push(pqItem{node: src, dist: 0})
	for len(q) > 0 {
		it := q.pop()
		if it.dist > dist[it.node] {
			continue
		}
		for _, e := range n.adj[it.node] {
			if d := it.dist + e.lat; d < dist[e.to] {
				dist[e.to] = d
				q.push(pqItem{node: e.to, dist: d})
			}
		}
	}
	return dist
}

// Config returns the configuration the network was generated from.
func (n *Network) Config() Config { return n.cfg }

// NumHosts returns the number of attached end systems.
func (n *Network) NumHosts() int { return len(n.hostRouter) }

// NumRouters returns the number of routers.
func (n *Network) NumRouters() int { return n.routers }

// HostRouter returns the stub router host h attaches to.
func (n *Network) HostRouter(h int) int { return n.hostRouter[h] }

// LastHop returns host h's access-link latency in milliseconds.
func (n *Network) LastHop(h int) float64 { return n.lastHop[h] }

// IsTransit reports whether router r is a transit router.
func (n *Network) IsTransit(r int) bool { return n.isTransit[r] }

// RouterDomain returns the domain label of router r.
func (n *Network) RouterDomain(r int) int { return n.routerDomain[r] }

// RouterLatency returns the one-way latency between two routers in
// milliseconds, as the active oracle sees it (shortest path for the
// exact oracle, embedded distance for coords).
func (n *Network) RouterLatency(a, b int) float64 { return n.oracle.RouterLatency(a, b) }

// OracleKind reports which oracle implementation the network resolved
// to (never OracleAuto).
func (n *Network) OracleKind() OracleKind { return n.oracle.Kind() }

// Latency returns the one-way end-to-end latency between hosts a and b
// in milliseconds: lastHop(a) + router path + lastHop(b). The latency
// of a host to itself is 0.
func (n *Network) Latency(a, b int) float64 {
	if a == b {
		return 0
	}
	// Canonicalize the pair so the floating-point sum (and any epsilon
	// asymmetry between the two Dijkstra runs) is identical either way.
	if a > b {
		a, b = b, a
	}
	if n.hostRow != nil {
		return n.lastHop[a] + n.hostRow[a][n.hostRouter[b]] + n.lastHop[b]
	}
	return n.lastHop[a] + n.oracle.RouterLatency(n.hostRouter[a], n.hostRouter[b]) + n.lastHop[b]
}

// RTT returns the round-trip time between hosts a and b in milliseconds.
func (n *Network) RTT(a, b int) float64 { return 2 * n.Latency(a, b) }

// SameStubDomain reports whether two hosts attach to the same stub domain.
func (n *Network) SameStubDomain(a, b int) bool {
	return n.routerDomain[n.hostRouter[a]] == n.routerDomain[n.hostRouter[b]]
}

// LatencyFunc returns a closure over Latency, the shape the ALM planner
// and coordinate subsystems consume (they are independent of this
// package's concrete type).
func (n *Network) LatencyFunc() func(a, b int) float64 {
	return n.Latency
}

// MaxLatency scans all host pairs among the given hosts and returns
// the largest pairwise latency. With a nil slice it scans every host.
// The O(n²) scan fans each row out over a worker pool; taking a
// maximum is order-independent, so the result matches the sequential
// scan exactly.
func (n *Network) MaxLatency(hosts []int) float64 {
	if hosts == nil {
		hosts = make([]int, n.NumHosts())
		for i := range hosts {
			hosts[i] = i
		}
	}
	rowMax := par.Map(n.cfg.Workers, len(hosts), func(i int) float64 {
		a, max := hosts[i], 0.0
		for _, b := range hosts[i+1:] {
			if l := n.Latency(a, b); l > max {
				max = l
			}
		}
		return max
	})
	max := 0.0
	for _, m := range rowMax {
		if m > max {
			max = m
		}
	}
	return max
}
