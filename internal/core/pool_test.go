package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"p2ppool/internal/alm"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/sched"
	"p2ppool/internal/somo"
	"p2ppool/internal/topology"
)

func fastPool(t *testing.T, hosts int, seed int64) *Pool {
	t.Helper()
	top := topology.DefaultConfig()
	top.Hosts = hosts
	top.Seed = seed
	p, err := BuildFast(Options{Topology: top, Seed: seed, CoordRounds: 12})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildFastBasics(t *testing.T) {
	p := fastPool(t, 300, 1)
	if p.NumHosts() != 300 {
		t.Fatalf("hosts = %d", p.NumHosts())
	}
	if len(p.Coords) != 300 || len(p.Bandwidth) != 300 || len(p.Degrees) != 300 {
		t.Fatal("per-host arrays wrong length")
	}
	for h := 0; h < 300; h++ {
		if p.Coords[h] == nil {
			t.Fatalf("host %d missing coordinate", h)
		}
		if p.Degrees[h] < 2 || p.Degrees[h] > 9 {
			t.Fatalf("host %d degree %d outside paper range", h, p.Degrees[h])
		}
		if p.Bandwidth[h].Up <= 0 || p.Bandwidth[h].Down <= 0 {
			t.Fatalf("host %d missing bandwidth estimate", h)
		}
	}
	snap := p.Snapshot()
	if len(snap) != 300 {
		t.Fatalf("snapshot size %d", len(snap))
	}
	for h, st := range snap {
		if st.Host != h || st.DegreeBound != p.Degrees[h] {
			t.Fatal("snapshot out of order or inconsistent")
		}
	}
}

func TestCoordLatencyReasonable(t *testing.T) {
	p := fastPool(t, 400, 2)
	// Coordinate predictions should correlate with truth: median
	// relative error well under 1.
	r := rand.New(rand.NewSource(3))
	bad, total := 0, 0
	for trial := 0; trial < 500; trial++ {
		a, b := r.Intn(400), r.Intn(400)
		if a == b {
			continue
		}
		truth := p.TrueLatency(a, b)
		if truth <= 0 {
			continue
		}
		pred := p.CoordLatency(a, b)
		rel := pred/truth - 1
		if rel < 0 {
			rel = -rel
		}
		total++
		if rel > 0.5 {
			bad++
		}
	}
	if bad*2 > total {
		t.Errorf("more than half of coordinate predictions are >50%% off (%d/%d)", bad, total)
	}
}

// TestHelperGainOnPaperSetup is the early sanity check for Figure 8:
// on the paper's topology and degree distribution, Critical+adjust must
// beat AMCast clearly for small groups.
func TestHelperGainOnPaperSetup(t *testing.T) {
	p := fastPool(t, 1200, 4)
	r := rand.New(rand.NewSource(5))

	var impCrit, impLeaf, impBase float64
	const runs = 5
	for run := 0; run < runs; run++ {
		perm := r.Perm(p.NumHosts())
		root, members := perm[0], perm[1:20]

		base, err := p.PlanSession(root, members, PlanOptions{NoHelpers: true})
		if err != nil {
			t.Fatal(err)
		}
		hBase := base.MaxHeight(p.TrueLatency)

		crit, err := p.PlanSession(root, members, PlanOptions{Mode: Critical, Adjust: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := crit.Validate(p.DegreeBound); err != nil {
			t.Fatal(err)
		}
		impCrit += alm.Improvement(hBase, crit.MaxHeight(p.TrueLatency))

		leaf, err := p.PlanSession(root, members, PlanOptions{Mode: Leafset, Adjust: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := leaf.Validate(p.DegreeBound); err != nil {
			t.Fatal(err)
		}
		impLeaf += alm.Improvement(hBase, leaf.MaxHeight(p.TrueLatency))

		baseAdj, err := p.PlanSession(root, members, PlanOptions{NoHelpers: true, Adjust: true})
		if err != nil {
			t.Fatal(err)
		}
		impBase += alm.Improvement(hBase, baseAdj.MaxHeight(p.TrueLatency))
	}
	impCrit /= runs
	impLeaf /= runs
	impBase /= runs
	t.Logf("improvements: AMCast+adju=%.3f Leafset+adju=%.3f Critical+adju=%.3f", impBase, impLeaf, impCrit)
	if impCrit < 0.15 {
		t.Errorf("Critical+adjust improvement %.3f, want >= 0.15 for group 20", impCrit)
	}
	if impLeaf < 0.10 {
		t.Errorf("Leafset+adjust improvement %.3f, want >= 0.10 for group 20", impLeaf)
	}
	if impCrit+0.05 < impBase {
		t.Errorf("helpers (%.3f) should beat adjust-only (%.3f)", impCrit, impBase)
	}
}

func TestPlanSessionLeafsetValidDespiteEstimates(t *testing.T) {
	p := fastPool(t, 600, 6)
	r := rand.New(rand.NewSource(7))
	perm := r.Perm(600)
	tree, err := p.PlanSession(perm[0], perm[1:30], PlanOptions{Mode: Leafset, Adjust: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(p.DegreeBound); err != nil {
		t.Fatal(err)
	}
	for _, m := range perm[1:30] {
		if !tree.Contains(m) {
			t.Fatalf("member %d missing", m)
		}
	}
}

func TestPoolScheduler(t *testing.T) {
	p := fastPool(t, 600, 8)
	sc := p.NewScheduler(sched.Config{})
	r := rand.New(rand.NewSource(9))
	perm := r.Perm(600)
	for i := 0; i < 5; i++ {
		members := perm[i*20 : (i+1)*20]
		err := sc.AddSession(&sched.Session{
			ID:       sched.SessionID(i + 1),
			Priority: 1 + i%3,
			Root:     members[0],
			Members:  append([]int(nil), members[1:]...),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sc.Stabilize(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Registry().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, s := range sc.Sessions() {
		if s.Tree == nil {
			t.Fatalf("session %d unplanned", s.ID)
		}
	}
}

func livePool(t *testing.T, hosts int, seed int64, converge eventsim.Time) *Pool {
	t.Helper()
	top := topology.DefaultConfig()
	top.Hosts = hosts
	top.Seed = seed
	p, err := BuildLive(LiveOptions{
		Options:  Options{Topology: top, Seed: seed, LeafsetRadius: 8},
		Converge: converge,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildLiveSnapshot(t *testing.T) {
	p := livePool(t, 64, 10, 60*eventsim.Second)
	snap := p.Snapshot()
	if len(snap) < 60 {
		t.Fatalf("live snapshot has %d records, want ~64", len(snap))
	}
	// Status payloads should be populated with live estimates.
	withCoord := 0
	for _, st := range snap {
		if len(st.Coord) > 0 {
			withCoord++
		}
		if st.DegreeBound < 2 {
			t.Fatal("missing degree bound in live status")
		}
	}
	if withCoord < 60 {
		t.Errorf("only %d records carry coordinates", withCoord)
	}
}

func TestOptimizeRootSwapsCapableNode(t *testing.T) {
	p := livePool(t, 48, 11, 30*eventsim.Second)
	// Capability: degree bound. Find the current root and the best.
	swapped, err := p.OptimizeRoot(func(h int) float64 { return float64(p.Degrees[h]) })
	if err != nil {
		t.Fatal(err)
	}
	p.Engine.RunUntil(p.Engine.Now() + 2*eventsim.Minute)
	// After the swap settles, the root host should be one with the
	// maximum degree bound.
	maxDeg := 0
	for _, d := range p.Degrees {
		if d > maxDeg {
			maxDeg = d
		}
	}
	var rootHost = -1
	for _, a := range p.Agents {
		if a.Node().Active() && a.IsRoot() {
			rootHost = int(a.Node().Self().Addr)
		}
	}
	if rootHost == -1 {
		t.Fatal("no root after swap")
	}
	if swapped && p.Degrees[rootHost] != maxDeg {
		t.Errorf("root host degree %d, want max %d", p.Degrees[rootHost], maxDeg)
	}
	// The pool should still produce a full snapshot.
	snap := p.Snapshot()
	if len(snap) < 40 {
		t.Errorf("post-swap snapshot has only %d records", len(snap))
	}
}

// liveDigest fingerprints a live pool's protocol outcome: events
// processed, the root snapshot (every Status field, so estimator and
// prober state too) and the transport counters.
func liveDigest(p *Pool) string {
	snap := p.Snapshot()
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", snap)
	return fmt.Sprintf("processed=%d records=%d snapshot=%016x stats=%+v",
		p.Engine.Processed(), len(snap), h.Sum64(), p.Sim.Stats())
}

// TestBuildLiveDigest pins the live assembly across commits the way
// studies.golden pins the studies: timers and jitter are drawn in
// creation order, so any change to how BuildLive or OptimizeRoot wire
// ring, estimators, probers and agents moves these strings. They were
// recorded at the commit before core's staged ring assembly; a
// deliberate behaviour change re-records them and says so. wantSwapped
// was re-recorded when the two re-joins OptimizeRoot makes came to be
// answered by the owner of each joiner's ID.
func TestBuildLiveDigest(t *testing.T) {
	const (
		wantBuilt   = "processed=90970 records=64 snapshot=dfca5cf24fe9882c stats={MessagesSent:87375 MessagesDelivered:86421 MessagesDropped:0 BytesSent:9906064}"
		wantSwapped = "processed=369830 records=64 snapshot=0771aabe139ccf14 stats={MessagesSent:352431 MessagesDelivered:351480 MessagesDropped:0 BytesSent:40251624}"
	)
	if testing.Short() {
		t.Skip("single-threaded determinism pin; the race run gains nothing from it")
	}
	p := livePool(t, 64, 21, 40*eventsim.Second)
	if got := liveDigest(p); got != wantBuilt {
		t.Errorf("after BuildLive:\n got: %s\nwant: %s", got, wantBuilt)
	}
	swapped, err := p.OptimizeRoot(func(h int) float64 { return float64(p.Degrees[h]) })
	if err != nil || !swapped {
		t.Fatalf("OptimizeRoot: swapped=%v err=%v", swapped, err)
	}
	p.Engine.RunUntil(p.Engine.Now() + 2*eventsim.Minute)
	if got := liveDigest(p); got != wantSwapped {
		t.Errorf("after OptimizeRoot:\n got: %s\nwant: %s", got, wantSwapped)
	}
}

// TestOptimizeRootKeepsSOMOConfig: the two members the swap re-joins
// must come back on the pool's own SOMO configuration — an agent on the
// default fanout or cadence would sit on a different logical tree from
// everyone else.
func TestOptimizeRootKeepsSOMOConfig(t *testing.T) {
	top := topology.DefaultConfig()
	top.Hosts = 48
	top.Seed = 21
	p, err := BuildLive(LiveOptions{
		Options:  Options{Topology: top, Seed: 21, LeafsetRadius: 8},
		SOMO:     somo.Config{ReportInterval: 2 * eventsim.Second, Fanout: 4},
		Converge: 30 * eventsim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := p.Agents[0].Config()
	if want.Fanout != 4 || want.ReportInterval != 2*eventsim.Second {
		t.Fatalf("BuildLive ignored LiveOptions.SOMO: %+v", want)
	}
	swapped, err := p.OptimizeRoot(func(h int) float64 { return float64(p.Degrees[h]) })
	if err != nil || !swapped {
		t.Fatalf("OptimizeRoot: swapped=%v err=%v", swapped, err)
	}
	for i, a := range p.Agents {
		if got := a.Config(); got != want {
			t.Errorf("agent %d (host %d) runs %+v, want %+v", i, a.Node().Self().Addr, got, want)
		}
	}
}

func TestOptimizeRootFastPoolFails(t *testing.T) {
	p := fastPool(t, 100, 12)
	if _, err := p.OptimizeRoot(func(h int) float64 { return 1 }); err == nil {
		t.Error("OptimizeRoot on a fast pool should fail")
	}
}
