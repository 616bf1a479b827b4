package coords

import (
	"math/rand"
	"slices"
	"testing"

	"p2ppool/internal/dht"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/ids"
	"p2ppool/internal/stats"
	"p2ppool/internal/transport"
)

// TestEstimatorConvergesOnRing runs the live heartbeat-driven protocol
// on a simulated ring over a planted (perfectly embeddable) latency
// space and checks that predicted pairwise latencies converge.
func TestEstimatorConvergesOnRing(t *testing.T) {
	const n = 32
	pts, lat := planted(n, 3, 11)
	_ = pts
	engine := eventsim.New(1)
	net := transport.NewSim(engine, transport.SimOptions{
		Latency: func(a, b int) float64 {
			if a == b {
				return 0
			}
			return lat(a, b)
		},
	})
	r := rand.New(rand.NewSource(2))
	idList := dht.RandomIDs(n, r)
	addrs := make([]transport.Addr, n)
	for i := range addrs {
		addrs[i] = transport.Addr(i)
	}
	nodes, err := dht.BuildRing(net, idList, addrs, dht.Config{
		LeafsetRadius:     8,
		HeartbeatInterval: eventsim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ests := make([]*Estimator, n)
	for i, nd := range nodes {
		ests[i] = NewEstimator(nd, EstimatorOptions{Dim: 3, Seed: int64(i + 1)})
	}
	engine.RunUntil(2 * eventsim.Minute)

	for i, e := range ests {
		if e.Updates() == 0 {
			t.Fatalf("estimator %d never refined (samples=%d)", i, e.SampleCount())
		}
	}

	// Pairwise relative error across the live coordinates. Addresses
	// equal host indices equal ring order here, so map node order back
	// to address order for the latency oracle.
	coordOf := make([]Vector, n)
	for i, nd := range nodes {
		coordOf[int(nd.Self().Addr)] = ests[i].Coord()
	}
	var errs []float64
	for trial := 0; trial < 300; trial++ {
		a, b := r.Intn(n), r.Intn(n)
		if a == b {
			continue
		}
		m := lat(a, b)
		if m <= 0 {
			continue
		}
		pred := Dist(coordOf[a], coordOf[b])
		errs = append(errs, abs(pred-m)/m)
	}
	med := stats.Median(errs)
	if med > 0.3 {
		t.Errorf("live estimator median relative error %.3f, want < 0.3", med)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestEstimatorIgnoresForeignPayload(t *testing.T) {
	engine := eventsim.New(3)
	net := transport.NewSim(engine, transport.SimOptions{
		Latency: func(a, b int) float64 { return 5 },
	})
	nd := dht.NewNode(net, 1, 0, dht.Config{})
	e := NewEstimator(nd, EstimatorOptions{Dim: 3})
	e.OnHeartbeat(dht.Entry{ID: 2, Addr: 1}, 10, "not a vector")
	e.OnHeartbeat(dht.Entry{ID: 2, Addr: 1}, 10, Vector{1, 2}) // wrong dim
	if e.SampleCount() != 0 {
		t.Error("foreign payloads should be ignored")
	}
}

func TestEstimatorUnderDetermined(t *testing.T) {
	engine := eventsim.New(4)
	net := transport.NewSim(engine, transport.SimOptions{
		Latency: func(a, b int) float64 { return 5 },
	})
	nd := dht.NewNode(net, 1, 0, dht.Config{})
	e := NewEstimator(nd, EstimatorOptions{Dim: 5, UpdateEvery: 1})
	// Fewer than dim+1 neighbors: refinement must not run.
	for i := 0; i < 3; i++ {
		e.OnHeartbeat(dht.Entry{ID: ids.ID(100 + i), Addr: transport.Addr(i + 1)}, 10, Vector{1, 2, 3, 4, 5})
	}
	if e.Updates() != 0 {
		t.Error("under-determined estimator should not refine")
	}
}

// TestEstimatorReferenceOrder pins the order of the fit's floating-point
// sum: the neighbors with a measured delay, in the order they were first
// heard from. (The table used to be a map ranged in Go's randomized
// order, so the sum's order changed from run to run.) The refinement
// must also be the model's solve over exactly those references.
func TestEstimatorReferenceOrder(t *testing.T) {
	const dim = 7
	engine := eventsim.New(5)
	net := transport.NewSim(engine, transport.SimOptions{
		Latency: func(a, b int) float64 { return 5 },
	})
	e := NewEstimator(dht.NewNode(net, 1, 0, dht.Config{}), EstimatorOptions{Dim: dim, UpdateEvery: 1 << 30})
	start := e.Coord()

	r := rand.New(rand.NewSource(6))
	const peers = 24
	var wantRefs []Vector
	var wantMeas []float64
	for _, i := range r.Perm(peers) { // arrival order is not ID order
		peer := dht.Entry{ID: ids.ID(1000 - 7*i), Addr: transport.Addr(i + 1)}
		first, last := randomVector(dim, 400, r), randomVector(dim, 400, r)
		rtt := 20 + 10*r.Float64()
		switch i % 6 {
		case 0: // heard of, never measured
			e.OnHeartbeat(peer, -1, first)
			continue
		case 1: // a zero RTT is no measurement either
			e.OnHeartbeat(peer, 0, first)
			continue
		}
		e.OnHeartbeat(peer, -1, first) // first seen without an RTT: the row is claimed here
		e.OnHeartbeat(peer, rtt, last)
		wantRefs = append(wantRefs, last)
		wantMeas = append(wantMeas, rtt/2)
	}
	if e.SampleCount() != peers {
		t.Fatalf("SampleCount = %d, want %d", e.SampleCount(), peers)
	}
	e.refine()
	if e.Updates() != 1 {
		t.Fatalf("Updates = %d after one refinement", e.Updates())
	}
	if !slices.Equal(e.fit.meas, wantMeas) {
		t.Errorf("delays gathered as %v, want first-seen order %v", e.fit.meas, wantMeas)
	}
	for i, ref := range wantRefs {
		if got := e.fit.refs[i*dim : (i+1)*dim]; !slices.Equal(got, ref) {
			t.Errorf("reference %d gathered as %v, want %v", i, got, ref)
		}
	}
	want := refSolveOwn(start, wantRefs, wantMeas, SimplexOptions{MaxIter: 60 * dim})
	if got := e.Coord(); !sameVector(got, want) {
		t.Errorf("refined to %v, model %v", got, want)
	}
}

// TestEstimatorPublishedCoordIsImmutable: a heartbeat carries the
// coordinate slice itself, so a refinement must replace it, never write
// into it — a payload in flight keeps the value it was sent with.
func TestEstimatorPublishedCoordIsImmutable(t *testing.T) {
	const dim = 3
	engine := eventsim.New(7)
	net := transport.NewSim(engine, transport.SimOptions{
		Latency: func(a, b int) float64 { return 5 },
	})
	e := NewEstimator(dht.NewNode(net, 1, 0, dht.Config{}), EstimatorOptions{Dim: dim, UpdateEvery: 1})
	inFlight := e.HeartbeatPayload(dht.Entry{}).(Vector)
	sent := inFlight.Clone()
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 12; i++ {
		e.OnHeartbeat(dht.Entry{ID: ids.ID(100 + i), Addr: transport.Addr(i + 1)}, 30+r.Float64(), randomVector(dim, 400, r))
	}
	if e.Updates() == 0 {
		t.Fatal("no refinement ran")
	}
	if !slices.Equal(inFlight, sent) {
		t.Errorf("payload in flight changed from %v to %v", sent, inFlight)
	}
	if slices.Equal(e.Coord(), sent) {
		t.Error("refinement left the coordinate where it started")
	}
	// The payload is the refined coordinate, boxed once per refinement:
	// a heartbeat allocates nothing.
	if got := e.HeartbeatPayload(dht.Entry{}).(Vector); !slices.Equal(got, e.Coord()) {
		t.Errorf("heartbeat carries %v after refinement, coordinate is %v", got, e.Coord())
	}
	var payload interface{}
	if n := testing.AllocsPerRun(100, func() { payload = e.HeartbeatPayload(dht.Entry{}) }); n != 0 {
		t.Errorf("a heartbeat payload allocates %.0f objects, want 0", n)
	}
	_ = payload
}
