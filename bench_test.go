package p2ppool_test

// Micro-benchmarks of the layers in isolation. Run:
//
//	go test -bench=. -benchmem
//
// The studies are not benchmarked here: cmd/experiments prints each
// one's wall time beside its tables.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"testing"

	"p2ppool"
	"p2ppool/internal/alm"
	"p2ppool/internal/coords"
	"p2ppool/internal/dataplane"
	"p2ppool/internal/dht"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/faultnet"
	"p2ppool/internal/ids"
	"p2ppool/internal/netmodel"
	"p2ppool/internal/sched"
	"p2ppool/internal/somo"
	"p2ppool/internal/topology"
	"p2ppool/internal/transport"
)

func benchPool(b *testing.B, hosts int) *p2ppool.Pool {
	b.Helper()
	top := topology.DefaultConfig()
	top.Hosts = hosts
	pool, err := p2ppool.New(p2ppool.Options{Topology: top, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return pool
}

// BenchmarkAMCast measures the baseline greedy planner at group 100.
func BenchmarkAMCast(b *testing.B) {
	b.ReportAllocs()
	pool := benchPool(b, 600)
	r := rand.New(rand.NewSource(1))
	perm := r.Perm(600)
	p := alm.Problem{
		Root: perm[0], Members: perm[1:100],
		Latency: pool.TrueLatency, Degree: pool.DegreeBound,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alm.AMCast(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanWithHelpers measures the critical-node planner with the
// whole pool as candidates.
func BenchmarkPlanWithHelpers(b *testing.B) {
	b.ReportAllocs()
	pool := benchPool(b, 600)
	r := rand.New(rand.NewSource(2))
	perm := r.Perm(600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.PlanSession(perm[0], perm[1:20], p2ppool.PlanOptions{
			Mode: p2ppool.Critical,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// adjustBenchSizes are the member counts BenchmarkAdjust and
// BenchmarkRepair plan at: the Figure 8 group sizes and one beyond.
var adjustBenchSizes = []int{20, 50, 100, 200}

// benchPlannedTree plans one roster of the given size with helpers
// recruited from a 600-host pool (Critical mode, not yet adjusted), and
// returns the tree and the roster.
func benchPlannedTree(b *testing.B, pool *p2ppool.Pool, members int) (*alm.Tree, []int) {
	b.Helper()
	roster := rand.New(rand.NewSource(3)).Perm(600)[:members]
	t, err := pool.PlanSession(roster[0], roster[1:], p2ppool.PlanOptions{Mode: p2ppool.Critical})
	if err != nil {
		b.Fatal(err)
	}
	return t, roster
}

// BenchmarkAdjust measures the tree-improvement pass on planned trees,
// helpers included; cloning the tree is outside the timer.
func BenchmarkAdjust(b *testing.B) {
	pool := benchPool(b, 600)
	for _, members := range adjustBenchSizes {
		base, _ := benchPlannedTree(b, pool, members)
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				t := base.Clone()
				b.StartTimer()
				alm.Adjust(t, pool.TrueLatency, pool.DegreeBound)
			}
		})
	}
}

// BenchmarkRepair measures a crash repair — reattach the orphans, then
// re-adjust — on the adjusted trees, after losing the first relaying
// helper (or, with none recruited, the first relaying member).
func BenchmarkRepair(b *testing.B) {
	pool := benchPool(b, 600)
	for _, members := range adjustBenchSizes {
		base, roster := benchPlannedTree(b, pool, members)
		alm.Adjust(base, pool.TrueLatency, pool.DegreeBound)
		dead := -1
		for _, v := range base.Nodes()[1:] {
			if len(base.Children(v)) == 0 {
				continue
			}
			if helper := !slices.Contains(roster, v); dead < 0 || helper {
				dead = v
				if helper {
					break
				}
			}
		}
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				t := base.Clone()
				b.StartTimer()
				if _, err := alm.Repair(t, []int{dead}, pool.TrueLatency, pool.DegreeBound); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLeafsetCoordinates measures the distributed coordinate solve
// at 600 hosts, on one worker and on every core, and reports how many
// wavefront levels each solve ran (DESIGN.md §5). `make layout` reads
// the one-worker half, which times code placement and not scheduling.
func BenchmarkLeafsetCoordinates(b *testing.B) {
	top := topology.DefaultConfig()
	top.Hosts = 600
	net, err := topology.Generate(top)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=NumCPU", runtime.NumCPU()}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			levels := 0
			for i := 0; i < b.N; i++ {
				nb := ringNeighborsBench(600, 32, rand.New(rand.NewSource(int64(i))))
				cfg := coords.LeafsetConfig{Dim: 7, Rounds: 5, Seed: int64(i), Core: 33, Workers: w.workers}
				if _, err := coords.SolveLeafset(net.Latency, 600, nb, cfg); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				l, err := coords.LeafsetLevels(600, nb, cfg)
				if err != nil {
					b.Fatal(err)
				}
				levels += l
				b.StartTimer()
			}
			b.ReportMetric(float64(levels)/float64(b.N), "levels/op")
		})
	}
}

// BenchmarkGNPCoordinates measures the landmark-based solve.
func BenchmarkGNPCoordinates(b *testing.B) {
	b.ReportAllocs()
	top := topology.DefaultConfig()
	top.Hosts = 600
	net, err := topology.Generate(top)
	if err != nil {
		b.Fatal(err)
	}
	landmarks := make([]int, 16)
	for i := range landmarks {
		landmarks[i] = i * 37
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coords.SolveGNP(net.Latency, 600, landmarks, coords.GNPConfig{
			Dim: 7, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitError times the coordinate fit's error kernel the only way
// a caller can reach it: one host refined eight times against refs fixed
// references, each a simplex run of at most 120·dim evaluations of
// E(x) = Σ|d_p − d_m|. Dim 7 runs the unrolled kernel (16 references is
// the benchmark's radius-8 leafset, 32 core's), dim 5 the generic loop.
// One worker, so it times the kernel and not the wavefront's goroutines.
// It is the benchmark `make layout` reads with and without a pad
// function linked ahead of coords.
func BenchmarkFitError(b *testing.B) {
	for _, c := range []struct{ dim, refs int }{{7, 16}, {7, 32}, {5, 16}} {
		b.Run(fmt.Sprintf("dim=%d/refs=%d", c.dim, c.refs), func(b *testing.B) {
			b.ReportAllocs()
			r := rand.New(rand.NewSource(9))
			delay := make([]float64, c.refs+1)
			refs := make([]int, c.refs)
			for i := range refs {
				refs[i] = i + 1
				delay[i+1] = 5 + 200*r.Float64()
			}
			lat := func(a, x int) float64 { return delay[x] }
			nb := func(i int) []int {
				if i == 0 {
					return refs
				}
				return nil
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coords.SolveLeafset(lat, c.refs+1, nb, coords.LeafsetConfig{
					Dim: c.dim, Rounds: 8, Seed: 10, Simultaneous: true, Workers: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimatorRefine measures one live refinement: a dim-7
// estimator with 16 measured neighbors re-solving its coordinate (420
// evaluations at most) on every heartbeat it is handed. The neighbors
// advertise fixed points and every delay is the true distance within
// ±10%, redrawn per heartbeat, so each solve starts near the last
// one's answer without sitting on it — a settled ring's refinement.
func BenchmarkEstimatorRefine(b *testing.B) {
	b.ReportAllocs()
	net := transport.NewSim(eventsim.New(1), transport.SimOptions{
		Latency: func(a, c int) float64 { return 5 },
	})
	est := coords.NewEstimator(dht.NewNode(net, 1, 0, dht.Config{}), coords.EstimatorOptions{Dim: 7, UpdateEvery: 1, Seed: 11})
	r := rand.New(rand.NewSource(12))
	point := func() coords.Vector {
		v := make(coords.Vector, 7)
		for d := range v {
			v[d] = 200 * r.Float64()
		}
		return v
	}
	self := point()
	peers := make([]dht.Entry, 16)
	adverts := make([]coords.Vector, len(peers))
	for i := range peers {
		peers[i] = dht.Entry{ID: ids.ID(100 + i), Addr: transport.Addr(i + 1)}
		adverts[i] = point()
	}
	noise := make([]float64, 1<<10)
	for i := range noise {
		noise[i] = 0.9 + 0.2*r.Float64()
	}
	heartbeat := func(i int) {
		p := i % len(peers)
		est.OnHeartbeat(peers[p], 2*coords.Dist(self, adverts[p])*noise[i%len(noise)], adverts[p])
	}
	for i := 0; i < 4*len(peers); i++ {
		heartbeat(i)
	}
	before := est.Updates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heartbeat(i)
	}
	if est.Updates()-before != uint64(b.N) {
		b.Fatalf("%d refinements for %d heartbeats", est.Updates()-before, b.N)
	}
}

// BenchmarkDHTRouting measures routed-message throughput through a
// 256-node ring with warm finger tables.
func BenchmarkDHTRouting(b *testing.B) {
	b.ReportAllocs()
	engine := eventsim.New(1)
	net := transport.NewSim(engine, transport.SimOptions{
		Latency: func(a, c int) float64 { return 5 },
	})
	r := rand.New(rand.NewSource(4))
	idList := dht.RandomIDs(256, r)
	addrs := make([]transport.Addr, 256)
	for i := range addrs {
		addrs[i] = transport.Addr(i)
	}
	nodes, err := dht.BuildRing(net, idList, addrs, dht.Config{
		LeafsetRadius: 8, FixFingersInterval: 200,
	})
	if err != nil {
		b.Fatal(err)
	}
	engine.RunUntil(2 * eventsim.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[i%256].Route(ids.Random(r), 64, "bench")
		if i%1024 == 1023 {
			// Drain in-flight routing (the ring's periodic timers never
			// drain, so advance bounded virtual time instead of Run(0)).
			engine.RunUntil(engine.Now() + 10*eventsim.Second)
		}
	}
	engine.RunUntil(engine.Now() + 10*eventsim.Second)
}

// BenchmarkDHTHeartbeat measures leafset maintenance alone: a settled
// 600-node ring at radius 8 with no fingers and nothing layered on it,
// so every message is a heartbeat or its ack and the handlers do only
// touch + merge of gossip that mostly falls outside the receiver's
// range. One op is one delivered message, the timer events amortized
// in; allocs/msg is the unrounded allocs/op (pinned per round trip by
// dht's TestHeartbeatSteadyStateAllocs).
func BenchmarkDHTHeartbeat(b *testing.B) {
	b.ReportAllocs()
	engine := eventsim.New(1)
	net := transport.NewSim(engine, transport.SimOptions{
		Latency: func(a, c int) float64 { return 5 },
	})
	const hosts = 600
	addrs := make([]transport.Addr, hosts)
	for i := range addrs {
		addrs[i] = transport.Addr(i)
	}
	if _, err := dht.BuildRing(net, dht.RandomIDs(hosts, rand.New(rand.NewSource(4))), addrs, dht.Config{
		LeafsetRadius: 8, Fingers: -1,
	}); err != nil {
		b.Fatal(err)
	}
	engine.RunUntil(10 * eventsim.Second)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	base := net.Stats().MessagesDelivered
	b.ResetTimer()
	for net.Stats().MessagesDelivered-base < uint64(b.N) {
		engine.Step()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/msg")
}

// BenchmarkSOMOGatherRound measures one full SOMO report wave over a
// 256-node ring.
func BenchmarkSOMOGatherRound(b *testing.B) {
	b.ReportAllocs()
	engine := eventsim.New(2)
	net := transport.NewSim(engine, transport.SimOptions{
		Latency: func(a, c int) float64 { return 5 },
	})
	r := rand.New(rand.NewSource(5))
	idList := dht.RandomIDs(256, r)
	addrs := make([]transport.Addr, 256)
	for i := range addrs {
		addrs[i] = transport.Addr(i)
	}
	nodes, err := dht.BuildRing(net, idList, addrs, dht.Config{LeafsetRadius: 8})
	if err != nil {
		b.Fatal(err)
	}
	for i, nd := range nodes {
		i := i
		somo.NewAgent(nd, somo.Config{ReportInterval: eventsim.Second}, func() interface{} { return i })
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.RunUntil(engine.Now() + eventsim.Second)
	}
}

// BenchmarkPacketPairEstimation measures a full analytic estimation
// round over 1200 hosts at leafset 32.
func BenchmarkPacketPairEstimation(b *testing.B) {
	b.ReportAllocs()
	m, err := netmodel.New(1200, netmodel.Options{Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	nb := ringNeighborsBench(1200, 32, rand.New(rand.NewSource(7)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experimentsBandwidthRound(m, nb)
	}
}

// BenchmarkTopologyGenerate measures paper-scale topology generation
// including all-pairs router shortest paths.
func BenchmarkTopologyGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := topology.DefaultConfig()
		cfg.Seed = int64(i)
		if _, err := topology.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopologyBuild isolates the tentpole's first hot path: the
// paper-scale build (600-router all-pairs Dijkstra) at a fixed seed,
// with the worker pool at 1 and at NumCPU.
func BenchmarkTopologyBuild(b *testing.B) {
	b.ReportAllocs()
	for _, workers := range []int{1, 0} {
		name := "workers=1"
		if workers == 0 {
			name = "workers=NumCPU"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := topology.DefaultConfig()
				cfg.Workers = workers
				if _, err := topology.Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAMCastPlan isolates the tentpole's second hot path: the
// baseline greedy planner with incremental relaxation, across the
// group sizes the figure sweeps cover.
func BenchmarkAMCastPlan(b *testing.B) {
	b.ReportAllocs()
	pool := benchPool(b, 1200)
	r := rand.New(rand.NewSource(9))
	perm := r.Perm(1200)
	for _, gs := range []int{20, 100, 200} {
		b.Run(fmt.Sprintf("group=%d", gs), func(b *testing.B) {
			b.ReportAllocs()
			p := alm.Problem{
				Root: perm[0], Members: perm[1:gs],
				Latency: pool.TrueLatency, Degree: pool.DegreeBound,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := alm.AMCast(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPoolBuild measures full fast-mode pool assembly at paper
// scale: topology + all-pairs, capacities, coordinate solve, one
// bandwidth probing round.
func BenchmarkPoolBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		top := topology.DefaultConfig()
		if _, err := p2ppool.New(p2ppool.Options{Topology: top, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerStabilize measures a 30-session market-driven
// scheduling wave on a 1200-host pool.
func BenchmarkSchedulerStabilize(b *testing.B) {
	b.ReportAllocs()
	pool := benchPool(b, 1200)
	r := rand.New(rand.NewSource(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		perm := r.Perm(1200)
		sc := pool.NewScheduler(p2ppool.SchedulerConfig{})
		for s := 0; s < 30; s++ {
			nodes := perm[s*20 : (s+1)*20]
			if err := sc.AddSession(&p2ppool.Session{
				ID:       p2ppool.SessionID(s + 1),
				Priority: 1 + s%3,
				Root:     nodes[0],
				Members:  append([]int(nil), nodes[1:]...),
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := sc.Stabilize(); err != nil {
			b.Fatal(err)
		}
	}
}

// schedWorld is the control-plane studies' synthetic pool: n hosts at
// random points of a 200x200 plane, latency 5 ms plus distance (a
// metric), degree bounds from the paper's distribution.
func schedWorld(n int, seed int64) (alm.LatencyFunc, []int) {
	r := rand.New(rand.NewSource(seed))
	xs, ys := make([]float64, n), make([]float64, n)
	for h := range xs {
		xs[h], ys[h] = r.Float64()*200, r.Float64()*200
	}
	lat := func(a, b int) float64 {
		if a == b {
			return 0
		}
		return 5 + math.Hypot(xs[a]-xs[b], ys[a]-ys[b])
	}
	return lat, alm.PaperDegrees(n, r)
}

// BenchmarkSchedPlanOne measures one planning attempt — a 4-member
// session planned with helpers, reserved and released — against pools of
// growing size on which about a tenth of the hosts already hold
// allocations. The roster is the same size at every pool size, so the
// curve is the pool-proportional part of a plan.
func BenchmarkSchedPlanOne(b *testing.B) {
	for _, n := range []int{2000, 8000, 32000} {
		b.Run(fmt.Sprintf("hosts=%d", n), func(b *testing.B) {
			lat, degrees := schedWorld(n, 9)
			sc := sched.NewScheduler(degrees, lat, sched.Config{ScoreLatency: lat, MetricScore: true})
			r := rand.New(rand.NewSource(10))
			id := sched.SessionID(0)
			session := func(pri int, hosts []int) *sched.Session {
				id++
				return &sched.Session{ID: id, Priority: pri, Root: hosts[0], Members: append([]int(nil), hosts[1:]...)}
			}
			// Rosters are drawn from the hosts holding no slots, so they never
			// contend for a member's own host.
			var free []int
			draw := func() []int {
				for i := 0; i < 4; i++ {
					j := i + r.Intn(len(free)-i)
					free[i], free[j] = free[j], free[i]
				}
				return free[:4]
			}
			idle := func() []int {
				free = free[:0]
				for h := 0; h < n; h++ {
					if sc.Registry().Table(h).Used() == 0 {
						free = append(free, h)
					}
				}
				return draw()
			}
			// The standing load: sessions until a tenth of the hosts hold slots.
			for roster := idle(); len(free) > n*9/10; roster = idle() {
				if err := sc.AddSession(session(1+r.Intn(3), roster)); err != nil {
					b.Fatal(err)
				}
				if _, err := sc.Stabilize(); err != nil {
					b.Fatal(err)
				}
			}
			// Probe rosters are idle hosts too, at the lowest priority, so an
			// iteration displaces nobody and is exactly one plan.
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := session(sched.NumClasses, draw())
				if err := sc.AddSession(s); err != nil {
					b.Fatal(err)
				}
				if plans, err := sc.Stabilize(); err != nil || plans != 1 {
					b.Fatalf("plans = %d, err = %v", plans, err)
				}
				sc.RemoveSession(s.ID)
			}
		})
	}
}

// BenchmarkRegistryReserveRelease measures the ledger alone: one session
// reserving two slots on each of six hosts of an 8000-host registry
// (preempting whatever lower class is in the way) and releasing them.
func BenchmarkRegistryReserveRelease(b *testing.B) {
	_, degrees := schedWorld(8000, 9)
	reg := sched.NewRegistry(degrees)
	r := rand.New(rand.NewSource(11))
	for sid := 1; sid <= 400; sid++ { // standing holders to merge with and preempt
		for k := 0; k < 6; k++ {
			reg.Reserve(r.Intn(8000), 1, 1+r.Intn(sched.NumClasses), sched.SessionID(sid))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sid := sched.SessionID(1000 + i)
		for k := 0; k < 6; k++ {
			reg.Reserve(r.Intn(8000), 2, 1+i%sched.NumClasses, sid) // a full host refuses; that is a result too
		}
		reg.Release(sid)
	}
}

// BenchmarkServiceTick measures the control plane's period: eight
// 4-member sessions submitted, then one Tick that admits and plans them
// (with the preemption guard in force) on an 8000-host pool, with the
// oldest sessions ending so about 600 stay live.
func BenchmarkServiceTick(b *testing.B) {
	const n, perTick, live = 8000, 8, 600
	lat, degrees := schedWorld(n, 9)
	sv := sched.NewService(degrees, lat, sched.ServiceConfig{
		Sched: sched.Config{ScoreLatency: lat, MetricScore: true}, Seed: 12,
		PreemptRate: 16 * perTick * 4, PreemptBurst: 32 * perTick * 4,
	})
	r := rand.New(rand.NewSource(13))
	now, next, oldest := eventsim.Time(0), 1, 1
	tick := func() {
		for k := 0; k < perTick; k++ {
			hosts := r.Perm(n)[:4]
			if _, err := sv.Submit(now, &sched.Session{ID: sched.SessionID(next), Priority: 1 + next%sched.NumClasses, Root: hosts[0], Members: hosts[1:]}); err != nil {
				b.Fatal(err)
			}
			next++
		}
		if err := sv.Tick(now); err != nil {
			b.Fatal(err)
		}
		for ; next-oldest > live; oldest++ {
			sv.EndSession(sched.SessionID(oldest))
		}
		now += 250 * eventsim.Millisecond
	}
	for i := 0; i < 2*live/perTick; i++ { // reach the steady state
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
}

// BenchmarkEventQueue measures the event core's steady-state cost: a
// schedule/fire/reset mix over a standing population of periodic
// timers. eventsim's own queue (a 4-ary heap of event values, the
// comparison inlined) plus Timer reuse makes the loop allocation-free
// (asserted by eventsim's TestScheduleFireZeroAlloc).
func BenchmarkEventQueue(b *testing.B) {
	b.ReportAllocs()
	engine := eventsim.New(1)
	const standing = 1024
	timers := make([]*eventsim.Timer, standing)
	k := 0
	for i := range timers {
		i := i
		timers[i] = engine.Schedule(eventsim.Time(1+i%64), func() {
			timers[i].Reset(eventsim.Time(1 + (i+k)%64))
		})
	}
	b.ResetTimer()
	for k = 0; k < b.N; k++ {
		engine.Step()
	}
}

// holdEvent is one member of BenchmarkEventQueueHold's standing
// population: firing it schedules it again.
type holdEvent struct {
	engine *eventsim.Engine
	delays []eventsim.Time // length a power of two
	next   int
}

func (h *holdEvent) RunEvent() {
	h.next++
	h.engine.CallAfter(h.delays[h.next&(len(h.delays)-1)], h)
}

// BenchmarkEventQueueHold is the classic hold model of a pending-event
// set: a standing population of depth events, each step popping the
// earliest and pushing it back a random delay later, so the queue is
// sifted at full depth on every operation (BenchmarkEventQueue's 64
// distinct delays drain mostly through the same-timestamp batch). The
// depths are the ones the benchmark workloads hold: ~1,100 per shard on
// `ring`, ~12,000 (17,000 peak) on `stream` before PR 24.
func BenchmarkEventQueueHold(b *testing.B) {
	for _, depth := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			engine := eventsim.New(1)
			r := rand.New(rand.NewSource(1))
			delays := make([]eventsim.Time, 1024)
			for i := range delays {
				delays[i] = eventsim.Time(r.ExpFloat64() * 1000)
			}
			for i := 0; i < depth; i++ {
				h := &holdEvent{engine: engine, delays: delays, next: r.Intn(len(delays))}
				engine.CallAfter(eventsim.Time(r.Float64()*1000), h)
			}
			engine.Run(uint64(4 * depth)) // past the start-up transient
			b.ReportAllocs()
			b.ResetTimer()
			engine.Run(uint64(b.N))
		})
	}
}

// BenchmarkPumpStream is one streaming session the size the `stream`
// workload runs 48 of: 50 members under a fan-out-3 tree, 200 one-second
// chunks at 250 kbps, 4 mesh neighbours each, uplinks drawn from one to
// six rungs so the deep relays run late and the mesh has work. One op is
// the whole stream; events/chunk, and allocs/op over the 200 chunks, are
// what a chunk costs the simulator whatever the machine.
func BenchmarkPumpStream(b *testing.B) {
	const members, chunks, kbps = 50, 200, 250.0
	r := rand.New(rand.NewSource(1))
	up := make([]float64, members+1)
	down := make([]float64, members+1)
	roster := make([]int, members)
	tree := alm.NewTree(0)
	for h := range up {
		up[h] = kbps * (1 + 5*r.Float64())
		down[h] = kbps * 20
		if h > 0 {
			roster[h-1] = h
			if err := tree.Attach(h, (h-1)/3); err != nil {
				b.Fatal(err)
			}
		}
	}
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine := eventsim.New(1)
		net := transport.NewSim(engine, transport.SimOptions{
			Latency: func(a, c int) float64 { return 5 + float64((a*31+c*17)%90) + 0.37 },
		})
		plane := dataplane.NewPlane(net, up, down)
		plane.Attach(members + 1)
		pump, err := plane.StartPump(1, 0, roster, func() *alm.Tree { return tree }, nil, 0, dataplane.Config{
			BitrateKbps: kbps, Playout: 3 * eventsim.Second, Chunks: chunks, PullNeighbors: 4, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		engine.Run(0)
		if st := pump.Finalize(); st.Expected != members*chunks {
			b.Fatalf("Expected = %d, want %d", st.Expected, members*chunks)
		}
		events += engine.Processed()
	}
	b.ReportMetric(float64(events)/float64(b.N*chunks), "events/chunk")
}

// BenchmarkTransportFanout measures one node sending to a 32-peer
// leafset through the simulated network, including delivery. Pooled
// delivery envelopes make the send path allocation-free (asserted by
// transport's TestSendZeroAlloc).
func BenchmarkTransportFanout(b *testing.B) {
	b.ReportAllocs()
	engine := eventsim.New(1)
	net := transport.NewSim(engine, transport.SimOptions{
		Latency: func(a, c int) float64 { return 5 },
	})
	const peers = 32
	for p := 0; p <= peers; p++ {
		net.Attach(transport.Addr(p), func(from transport.Addr, msg transport.Message) {})
	}
	msg := transport.Message(fanoutMsg{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 1; p <= peers; p++ {
			net.Send(0, transport.Addr(p), 64, msg)
		}
		engine.Run(peers)
	}
}

// BenchmarkFaultnetSend measures one message through a pass-through
// faultnet.Net over Sim — no rule configured, so the layer only looks up
// both endpoints' crash state and the empty rule maps on send and the
// recipient's on delivery — including delivery. One op is one delivered
// message; the path allocates nothing.
func BenchmarkFaultnetSend(b *testing.B) {
	b.ReportAllocs()
	engine := eventsim.New(1)
	f := faultnet.New(transport.NewSim(engine, transport.SimOptions{
		Latency: func(a, c int) float64 { return 5 },
	}), faultnet.Options{Seed: 1})
	const peers = 32
	for p := 0; p <= peers; p++ {
		f.Attach(transport.Addr(p), func(from transport.Addr, msg transport.Message) {})
	}
	msg := transport.Message(fanoutMsg{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Send(0, transport.Addr(1+i%peers), 64, msg)
		engine.Step()
	}
}

type fanoutMsg struct{}

func (fanoutMsg) Type() string { return "bench.fanout" }

// BenchmarkLatencyOracle measures per-query cost of the two latency
// oracles on the same 1464-router graph: exact (table load) and coords
// (O(dim) flops). Build cost is excluded; the memory trade is the scale
// study's subject.
func BenchmarkLatencyOracle(b *testing.B) {
	for _, kind := range []topology.OracleKind{topology.OracleExact, topology.OracleCoords} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := topology.DefaultConfig()
			cfg.StubDomainsPerTransit = 10 // 1464 routers
			cfg.Hosts = 400
			cfg.Oracle = kind
			net, err := topology.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			nr := net.NumRouters()
			r := rand.New(rand.NewSource(1))
			pairs := make([][2]int, 4096)
			for i := range pairs {
				pairs[i] = [2]int{r.Intn(nr), r.Intn(nr)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0.0
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				sink += net.RouterLatency(p[0], p[1])
			}
			_ = sink
		})
	}
}

// BenchmarkShardedEventLoop measures the conservative-PDES ring: every
// host sends one message to a pseudo-random peer each 100 virtual ms
// (a heartbeat's density) over 8 shards, advanced one simulated second
// per op, at 512 to 16,384 hosts and one to eight workers. Beside wall
// time it reports the events per lockstep window and the process's CPU
// time per op: the sweep that calibrates when eventsim.ShardGroup splits
// a window across its workers (DESIGN.md §5). Built with -tags
// forcesplit every window splits, which is what the calibration reads.
func BenchmarkShardedEventLoop(b *testing.B) {
	const lookahead = eventsim.Time(6)
	windows := math.Ceil(float64(eventsim.Second / lookahead))
	for _, hosts := range []int{512, 1024, 2048, 4096, 8192, 16384} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("hosts=%d/workers=%d", hosts, workers), func(b *testing.B) {
				sim := transport.NewShardedSim(transport.ShardedSimOptions{
					Latency: func(a, c int) float64 {
						if a == c {
							return 0
						}
						return 6 + float64((a*31+c*17)%40)
					},
					Shards:    8,
					Lookahead: lookahead,
					Workers:   workers,
					Seed:      1,
				})
				for h := 0; h < hosts; h++ {
					h := h
					a := transport.Addr(h)
					net := sim.View(a)
					net.Attach(a, func(from transport.Addr, msg transport.Message) {})
					seq := 0
					var tick func()
					tick = func() {
						net.Send(a, transport.Addr((h*7+seq*13+1)%hosts), 64, fanoutMsg{})
						seq++
						net.After(100, tick)
					}
					net.After(eventsim.Time(h%100), tick)
				}
				// One warm-up second, so every op runs at the steady density.
				sim.RunUntil(eventsim.Second)
				b.ReportAllocs()
				b.ResetTimer()
				events, cpu := sim.Processed(), processCPU()
				for i := 0; i < b.N; i++ {
					sim.RunUntil(sim.Now() + eventsim.Second)
				}
				b.ReportMetric(float64(sim.Processed()-events)/float64(b.N)/windows, "events/window")
				b.ReportMetric((processCPU()-cpu)*1e3/float64(b.N), "cpu-ms/op")
			})
		}
	}
}

// processCPU is the process's user+system CPU time in seconds, read as
// the benchmark's cpu_s is (bench/measure.go).
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// --- helpers shared by benches ---

func ringNeighborsBench(n, L int, r *rand.Rand) func(i int) []int {
	perm := r.Perm(n)
	posOf := make([]int, n)
	for pos, h := range perm {
		posOf[h] = pos
	}
	half := L / 2
	return func(h int) []int {
		pos := posOf[h]
		out := make([]int, 0, L)
		for k := 1; k <= half; k++ {
			out = append(out, perm[(pos+k)%n], perm[(pos-k+n)%n])
		}
		return out
	}
}

func experimentsBandwidthRound(m *netmodel.Model, nb func(i int) []int) {
	// Mirrors bandwidth.EstimateAll's probing pattern.
	n := m.NumHosts()
	for x := 0; x < n; x++ {
		for _, y := range nb(x) {
			_ = m.PathBottleneck(x, y)
			_ = m.PathBottleneck(y, x)
		}
	}
}
