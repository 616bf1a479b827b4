package topology

import (
	"math/rand"
	"testing"
)

// scaledConfig returns a mid-scale config (1464 routers) that crosses
// the auto-oracle threshold, with kind pinned explicitly.
func scaledConfig(kind OracleKind) Config {
	cfg := DefaultConfig()
	cfg.StubDomainsPerTransit = 10
	cfg.Hosts = 400
	cfg.Oracle = kind
	return cfg
}

func TestOracleAutoResolution(t *testing.T) {
	small, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := small.OracleKind(); got != OracleExact {
		t.Errorf("600-router default resolved to %v, want exact", got)
	}
	bigCfg := scaledConfig(OracleAuto)
	bigCfg.StubDomainsPerTransit = 15 // 2184 routers — past the threshold
	bigCfg.Hosts = 100
	big, err := Generate(bigCfg)
	if err != nil {
		t.Fatal(err)
	}
	if big.Config().NumRouters() <= autoExactMax {
		t.Fatalf("test config has %d routers, need > %d to cross the auto threshold",
			big.Config().NumRouters(), autoExactMax)
	}
	if got := big.OracleKind(); got != OracleCoords {
		t.Errorf("%d-router network resolved to %v, want coords", big.Config().NumRouters(), got)
	}
}

// TestCoordsOracleErrorBudget is the acceptance gate from the scale
// work: the coordinate oracle's p50 relative latency error vs exact
// Dijkstra must stay within 15% on sampled pairs (p90 within 50%).
func TestCoordsOracleErrorBudget(t *testing.T) {
	net, err := Generate(scaledConfig(OracleCoords))
	if err != nil {
		t.Fatal(err)
	}
	p50, p90 := net.OracleError(1500, 7)
	t.Logf("coords oracle: p50=%.3f p90=%.3f", p50, p90)
	if p50 > 0.15 {
		t.Errorf("coords oracle p50 relative error %.3f exceeds the 15%% budget", p50)
	}
	if p90 > 0.50 {
		t.Errorf("coords oracle p90 relative error %.3f exceeds the 50%% budget", p90)
	}
}

// TestExactOracleErrorIsZero: OracleError against the exact oracle is
// identically zero — the measurement harness itself is sound.
func TestExactOracleErrorIsZero(t *testing.T) {
	net, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p50, p90 := net.OracleError(500, 7)
	if p50 != 0 || p90 != 0 {
		t.Errorf("exact oracle error p50=%v p90=%v, want 0, 0", p50, p90)
	}
}

// TestCoordsOracleDeterministicAcrossWorkers: the embedding (and hence
// every latency it reports) is identical for any worker count.
func TestCoordsOracleDeterministicAcrossWorkers(t *testing.T) {
	build := func(workers int) *Network {
		cfg := scaledConfig(OracleCoords)
		cfg.Workers = workers
		net, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	a, b := build(1), build(8)
	r := rand.New(rand.NewSource(2))
	nr := a.NumRouters()
	for i := 0; i < 2000; i++ {
		x, y := r.Intn(nr), r.Intn(nr)
		if la, lb := a.RouterLatency(x, y), b.RouterLatency(x, y); la != lb {
			t.Fatalf("RouterLatency(%d,%d) differs across workers: %v vs %v", x, y, la, lb)
		}
	}
}

// TestCoordsOracleMetricProperties: the embedded latencies form a
// metric (symmetry, triangle inequality, zero self-distance) — the
// property the ALM planner's indexed helper search requires.
func TestCoordsOracleMetricProperties(t *testing.T) {
	net, err := Generate(scaledConfig(OracleCoords))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	nr := net.NumRouters()
	for i := 0; i < 1000; i++ {
		a, b, c := r.Intn(nr), r.Intn(nr), r.Intn(nr)
		ab, ba := net.RouterLatency(a, b), net.RouterLatency(b, a)
		if ab != ba {
			t.Fatalf("asymmetric: lat(%d,%d)=%v lat(%d,%d)=%v", a, b, ab, b, a, ba)
		}
		if net.RouterLatency(a, a) != 0 {
			t.Fatalf("self latency of %d nonzero", a)
		}
		if ac, cb := net.RouterLatency(a, c), net.RouterLatency(c, b); ab > ac+cb+1e-9 {
			t.Fatalf("triangle violated: lat(%d,%d)=%v > %v+%v", a, b, ab, ac, cb)
		}
	}
}
