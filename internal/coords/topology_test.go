package coords_test

// Tests that judge the embedding against a real (non-Euclidean)
// transit-stub topology. These live in an external test package:
// internal/topology now imports coords for its coordinate latency
// oracle, so an internal coords test cannot import topology back.

import (
	"math/rand"
	"sort"
	"testing"

	"p2ppool/internal/coords"
	"p2ppool/internal/dht"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/stats"
	"p2ppool/internal/topology"
	"p2ppool/internal/transport"
)

func TestGNPOnTransitStub(t *testing.T) {
	// On a real (non-embeddable) topology GNP cannot be exact, but the
	// median relative error should still be modest — this is the
	// qualitative Figure 4 claim.
	cfg := topology.DefaultConfig()
	cfg.Hosts = 200
	net, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	landmarks := make([]int, 0, 16)
	seen := map[int]bool{}
	for len(landmarks) < 16 {
		h := r.Intn(cfg.Hosts)
		if !seen[h] {
			seen[h] = true
			landmarks = append(landmarks, h)
		}
	}
	got, err := coords.SolveGNP(net.Latency, cfg.Hosts, landmarks, coords.GNPConfig{Dim: 5, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	errs := coords.PairErrors(got, net.Latency, coords.RandomPairs(cfg.Hosts, 500, r))
	med := stats.Median(errs)
	if med > 0.35 {
		t.Errorf("GNP median relative error on transit-stub %.3f, want < 0.35", med)
	}
}

// TestRouterEmbeddingErrorDistribution is the error-budget regression
// gate for the coordinate latency oracle's ingredients: embed the
// routers of a scaled transit-stub graph with the relative-error GNP
// solve (the exact recipe topology's coords oracle runs) and pin the
// p50/p90 relative error against exact Dijkstra over ≥1000 sampled
// router pairs at a fixed seed. If a solver change degrades the
// embedding past the budget the scale study depends on, this fails.
func TestRouterEmbeddingErrorDistribution(t *testing.T) {
	cfg := topology.DefaultConfig()
	cfg.StubDomainsPerTransit = 10 // 1464 routers — a mid-scale graph
	cfg.Hosts = 100                // hosts are irrelevant here
	cfg.Oracle = topology.OracleExact
	net, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nr := net.NumRouters()
	r := rand.New(rand.NewSource(11))
	landmarks := make([]int, 0, 24)
	seen := map[int]bool{}
	for len(landmarks) < cap(landmarks) {
		x := r.Intn(nr)
		if !seen[x] {
			seen[x] = true
			landmarks = append(landmarks, x)
		}
	}
	vecs, err := coords.SolveGNP(net.RouterLatency, nr, landmarks, coords.GNPConfig{
		Dim: 8, Rounds: 24, Seed: 12, Spread: 300,
		RelativeError: true, MaxIter: 1600,
	})
	if err != nil {
		t.Fatal(err)
	}
	errs := coords.PairErrors(vecs, net.RouterLatency, coords.RandomPairs(nr, 1200, r))
	sort.Float64s(errs)
	p50 := errs[len(errs)/2]
	p90 := errs[len(errs)*9/10]
	t.Logf("router embedding relative error: p50=%.3f p90=%.3f over %d pairs", p50, p90, len(errs))
	if p50 > 0.15 {
		t.Errorf("p50 relative error %.3f exceeds the 15%% budget", p50)
	}
	if p90 > 0.50 {
		t.Errorf("p90 relative error %.3f exceeds the 50%% budget", p90)
	}
}

// TestLiveEstimatorAccuracy pins what the heartbeat-driven estimators
// deliver on a real topology — the coordinates the live pool plans
// from, which Figure 4 and the ablation (both SolveLeafset) never read.
// 128 hosts of a transit-stub graph on a radius-8 ring, dim-7
// estimators: relative prediction error over 2,000 fixed host pairs and
// the refinements spent, at 40 and 80 virtual seconds. The counts are
// exact; each error bound is the recorded value rounded up to two
// decimals, so a change that buys speed with accuracy (skipping
// refinements, say) fails here.
func TestLiveEstimatorAccuracy(t *testing.T) {
	const n = 128
	cfg := topology.DefaultConfig()
	cfg.Hosts = n
	cfg.Seed = 21
	net, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine := eventsim.New(22)
	sim := transport.NewSim(engine, transport.SimOptions{Latency: net.Latency})
	r := rand.New(rand.NewSource(23))
	addrs := make([]transport.Addr, n)
	for i := range addrs {
		addrs[i] = transport.Addr(i)
	}
	nodes, err := dht.BuildRing(sim, dht.RandomIDs(n, r), addrs, dht.Config{LeafsetRadius: 8})
	if err != nil {
		t.Fatal(err)
	}
	ests := make([]*coords.Estimator, n) // by host
	for _, nd := range nodes {
		h := int(nd.Self().Addr)
		ests[h] = coords.NewEstimator(nd, coords.EstimatorOptions{Dim: 7, Seed: int64(100 + h)})
	}
	pairs := coords.RandomPairs(n, 2000, r)

	for _, want := range []struct {
		at       eventsim.Time
		refines  uint64
		p50, p90 float64
	}{
		{40 * eventsim.Second, 10012, 0.20, 1.07}, // recorded at d8334d3: 0.1915 / 1.0668
		{80 * eventsim.Second, 20332, 0.18, 0.99}, // 0.1717 / 0.9867
	} {
		engine.RunUntil(want.at)
		cs := make([]coords.Vector, n)
		var refines uint64
		for h, e := range ests {
			cs[h] = e.Coord()
			refines += e.Updates()
		}
		errs := coords.PairErrors(cs, net.Latency, pairs)
		sort.Float64s(errs)
		p50, p90 := errs[len(errs)/2], errs[len(errs)*9/10]
		t.Logf("t=%v: %d refinements, relative error p50=%.4f p90=%.4f over %d pairs",
			want.at, refines, p50, p90, len(errs))
		if refines != want.refines {
			t.Errorf("t=%v: %d refinements, want exactly %d", want.at, refines, want.refines)
		}
		if p50 > want.p50 || p90 > want.p90 {
			t.Errorf("t=%v: relative error p50=%.4f p90=%.4f, want <= %.2f / %.2f",
				want.at, p50, p90, want.p50, want.p90)
		}
	}
}
