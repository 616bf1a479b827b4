package topology

import (
	"math/rand"
	"testing"
)

func smallConfig() Config {
	c := DefaultConfig()
	c.TransitDomains = 2
	c.TransitPerDomain = 3
	c.StubDomainsPerTransit = 2
	c.StubPerDomain = 3
	c.Hosts = 60
	return c
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if got := c.NumTransit(); got != 24 {
		t.Errorf("transit routers = %d, want 24", got)
	}
	if got := c.NumStub(); got != 576 {
		t.Errorf("stub routers = %d, want 576", got)
	}
	if got := c.NumRouters(); got != 600 {
		t.Errorf("routers = %d, want 600", got)
	}
	if c.Hosts != 1200 {
		t.Errorf("hosts = %d, want 1200", c.Hosts)
	}
	if c.TransitLatency != 100 || c.StubTransitLatency != 25 || c.StubLatency != 10 {
		t.Error("link latencies should be 100/25/10 ms")
	}
	if c.LastHopMin != 3 || c.LastHopMax != 8 {
		t.Error("last hop should be 3-8 ms")
	}
}

func TestValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.TransitDomains = 0 },
		func(c *Config) { c.TransitPerDomain = 0 },
		func(c *Config) { c.StubDomainsPerTransit = 0 },
		func(c *Config) { c.StubPerDomain = 0 },
		func(c *Config) { c.Hosts = 0 },
		func(c *Config) { c.TransitLatency = 0 },
		func(c *Config) { c.StubTransitLatency = -1 },
		func(c *Config) { c.StubLatency = 0 },
		func(c *Config) { c.LastHopMin = 0 },
		func(c *Config) { c.LastHopMax = 1; c.LastHopMin = 2 },
		func(c *Config) { c.ExtraEdgeProb = 1.5 },
		// An undeclared kind used to pass, leave the network without an
		// oracle and crash the first Latency call.
		func(c *Config) { c.Oracle = OracleCoords + 1 },
		func(c *Config) { c.Oracle = -1 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	for _, kind := range []OracleKind{OracleAuto, OracleExact, OracleCoords} {
		c := DefaultConfig()
		c.Oracle = kind
		if err := c.Validate(); err != nil {
			t.Errorf("default config with the %v oracle should validate: %v", kind, err)
		}
	}
	if _, err := Generate(Config{}); err == nil {
		t.Error("Generate of zero config should fail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < a.NumHosts(); h++ {
		if a.HostRouter(h) != b.HostRouter(h) || a.LastHop(h) != b.LastHop(h) {
			t.Fatalf("host %d differs between identical seeds", h)
		}
	}
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if a.Latency(i, j) != b.Latency(i, j) {
				t.Fatalf("latency(%d,%d) differs between identical seeds", i, j)
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	c1 := smallConfig()
	c2 := smallConfig()
	c2.Seed = 999
	a, _ := Generate(c1)
	b, _ := Generate(c2)
	same := true
	for h := 0; h < a.NumHosts() && same; h++ {
		if a.HostRouter(h) != b.HostRouter(h) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical host placement")
	}
}

func TestConnectivity(t *testing.T) {
	n, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every router must be reachable from router 0: finite latency.
	for r := 0; r < n.NumRouters(); r++ {
		if n.RouterLatency(0, r) >= 1e17 {
			t.Fatalf("router %d unreachable from router 0", r)
		}
	}
}

func TestLatencySymmetricAndPositive(t *testing.T) {
	n, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		a := r.Intn(n.NumHosts())
		b := r.Intn(n.NumHosts())
		la, lb := n.Latency(a, b), n.Latency(b, a)
		if la != lb {
			t.Fatalf("latency not symmetric: %v vs %v", la, lb)
		}
		if a != b && la <= 0 {
			t.Fatalf("latency(%d,%d) = %v, want > 0", a, b, la)
		}
	}
	if n.Latency(5, 5) != 0 {
		t.Error("self latency should be 0")
	}
}

func TestLatencyTriangleViaRouters(t *testing.T) {
	// Shortest-path router latencies must satisfy the triangle
	// inequality (they are true shortest paths over one metric).
	n, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		a, b, c := r.Intn(n.NumRouters()), r.Intn(n.NumRouters()), r.Intn(n.NumRouters())
		if n.RouterLatency(a, c) > n.RouterLatency(a, b)+n.RouterLatency(b, c)+1e-9 {
			t.Fatalf("router triangle inequality violated at (%d,%d,%d)", a, b, c)
		}
	}
}

func TestLatencyScale(t *testing.T) {
	// Hosts in the same stub domain should be dramatically closer than
	// hosts in different transit domains — the locality structure that
	// the radius-R helper heuristic exploits.
	n, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sameStub, crossTransit []float64
	for a := 0; a < 200; a++ {
		for b := a + 1; b < 200; b++ {
			l := n.Latency(a, b)
			if n.SameStubDomain(a, b) {
				sameStub = append(sameStub, l)
			} else if n.RouterDomain(n.HostRouter(a)) != n.RouterDomain(n.HostRouter(b)) &&
				n.RouterLatency(n.HostRouter(a), n.HostRouter(b)) > 200 {
				crossTransit = append(crossTransit, l)
			}
		}
	}
	if len(sameStub) == 0 || len(crossTransit) == 0 {
		t.Skip("sample too small to compare locality classes")
	}
	maxSame := 0.0
	for _, l := range sameStub {
		if l > maxSame {
			maxSame = l
		}
	}
	minCross := 1e18
	for _, l := range crossTransit {
		if l < minCross {
			minCross = l
		}
	}
	if maxSame >= minCross {
		t.Errorf("same-stub max %v >= cross-transit min %v", maxSame, minCross)
	}
}

func TestLastHopRange(t *testing.T) {
	n, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < n.NumHosts(); h++ {
		lh := n.LastHop(h)
		if lh < 3 || lh > 8 {
			t.Fatalf("host %d last hop %v outside [3,8]", h, lh)
		}
		r := n.HostRouter(h)
		if n.IsTransit(r) {
			t.Fatalf("host %d attached to transit router %d", h, r)
		}
	}
}

func TestRTT(t *testing.T) {
	n, _ := Generate(smallConfig())
	if n.RTT(0, 1) != 2*n.Latency(0, 1) {
		t.Error("RTT should be twice one-way latency")
	}
}

func TestMaxLatency(t *testing.T) {
	n, _ := Generate(smallConfig())
	sub := []int{0, 1, 2, 3}
	m := n.MaxLatency(sub)
	for i, a := range sub {
		for _, b := range sub[i+1:] {
			if n.Latency(a, b) > m {
				t.Fatalf("MaxLatency missed pair (%d,%d)", a, b)
			}
		}
	}
	all := n.MaxLatency(nil)
	if all < m {
		t.Error("MaxLatency(nil) should be >= subset max")
	}
}

func TestLatencyFunc(t *testing.T) {
	n, _ := Generate(smallConfig())
	f := n.LatencyFunc()
	if f(1, 2) != n.Latency(1, 2) {
		t.Error("LatencyFunc should delegate to Latency")
	}
}

func TestSingleDomainEdgeCases(t *testing.T) {
	c := Config{
		TransitDomains:        1,
		TransitPerDomain:      1,
		StubDomainsPerTransit: 1,
		StubPerDomain:         2,
		Hosts:                 4,
		TransitLatency:        100,
		StubTransitLatency:    25,
		StubLatency:           10,
		LastHopMin:            3,
		LastHopMax:            8,
		ExtraEdgeProb:         0,
		Seed:                  1,
	}
	n, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n.NumRouters(); r++ {
		if n.RouterLatency(0, r) >= 1e17 {
			t.Fatalf("router %d unreachable in degenerate topology", r)
		}
	}
	// size-2 stub domain should have exactly one intra edge, not two.
	if got := len(n.adj[1]); got < 1 {
		t.Fatalf("stub router 1 has no edges")
	}
	seen := map[int]int{}
	for _, e := range n.adj[1] {
		seen[e.to]++
	}
	for to, cnt := range seen {
		if cnt > 1 {
			t.Errorf("duplicate edge 1->%d (%d copies)", to, cnt)
		}
	}
}
