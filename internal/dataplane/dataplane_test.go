package dataplane

import (
	"reflect"
	"strings"
	"testing"

	"p2ppool/internal/alm"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/faultnet"
	"p2ppool/internal/transport"
)

// world builds an engine, a 10ms-everywhere simulated transport, and a
// plane over uniform per-host capacities.
func world(t *testing.T, n int, upKbps, downKbps float64) (*eventsim.Engine, *Plane) {
	t.Helper()
	engine := eventsim.New(1)
	net := transport.NewSim(engine, transport.SimOptions{
		Latency: func(a, b int) float64 {
			if a == b {
				return 0
			}
			return 10
		},
	})
	up := make([]float64, n)
	down := make([]float64, n)
	for i := range up {
		up[i] = upKbps
		down[i] = downKbps
	}
	pl := NewPlane(net, up, down)
	pl.Attach(n)
	return engine, pl
}

func chain(hosts ...int) *alm.Tree {
	tr := alm.NewTree(hosts[0])
	for i := 1; i < len(hosts); i++ {
		if err := tr.Attach(hosts[i], hosts[i-1]); err != nil {
			panic(err)
		}
	}
	return tr
}

func TestPumpDeliversOnStaticTree(t *testing.T) {
	engine, pl := world(t, 4, 10000, 10000)
	tr := chain(0, 1, 2, 3)
	p, err := pl.StartPump(1, 0, []int{1, 2, 3}, func() *alm.Tree { return tr }, nil, 0, Config{
		BitrateKbps: 400, Chunks: 10, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(30 * eventsim.Second)
	st := p.Finalize()
	if st.Expected != 30 {
		t.Fatalf("Expected = %d, want 30 (3 members x 10 chunks)", st.Expected)
	}
	if st.OnTimeTree != 30 || st.TreeMisses != 0 {
		t.Fatalf("outcomes %+v, want all on-time via tree", st)
	}
	if st.PullsSent != 0 {
		t.Fatalf("PullsSent = %d on a healthy tree, want 0", st.PullsSent)
	}
	// Relay chain: the source sends each chunk once, relays twice —
	// offload 2/3.
	if got := st.SourceOffload(); got < 0.66 || got > 0.67 {
		t.Fatalf("SourceOffload = %v, want ~2/3", got)
	}

	// A chunk that lands exactly at its deadline is on time. Each hop
	// is a 40 ms transfer (50 KB at 10,000 kbps) plus 10 ms, so member 3
	// receives every chunk 150 ms after its emission.
	engine, pl = world(t, 4, 10000, 10000)
	p, err = pl.StartPump(1, 0, []int{1, 2, 3}, func() *alm.Tree { return tr }, nil, 0, Config{
		BitrateKbps: 400, Chunks: 10, Playout: 150, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(30 * eventsim.Second)
	if st := p.Finalize(); st.OnTimeTree != 30 || st.Late != 0 {
		t.Fatalf("outcomes %+v with the deepest member's chunks landing at the deadline, want all on-time via tree", st)
	}
}

func TestPumpContentionMissesDeadlines(t *testing.T) {
	// Source uplink exactly one rung: two direct children share it, so
	// each chunk takes two chunk durations to push — the backlog grows
	// and deadlines blow. The same shape with 4x headroom is clean.
	run := func(upKbps float64) Stats {
		engine, pl := world(t, 3, upKbps, 100000)
		tr := alm.NewTree(0)
		tr.Attach(1, 0)
		tr.Attach(2, 0)
		p, err := pl.StartPump(1, 0, []int{1, 2}, func() *alm.Tree { return tr }, nil, 0, Config{
			BitrateKbps: 400, Chunks: 10, PullNeighbors: 0, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		engine.RunUntil(60 * eventsim.Second)
		return p.Finalize()
	}
	tight := run(400)
	if tight.Late+tight.Lost == 0 {
		t.Fatalf("no deadline misses at capacity == bitrate with fanout 2: %+v", tight)
	}
	if tight.Late == 0 {
		t.Fatalf("no late chunk at capacity == bitrate with fanout 2: %+v", tight)
	}
	if tight.TreeMisses != tight.Expected-tight.OnTimeTree {
		t.Fatalf("TreeMisses = %d, want every expected chunk not on time via the tree: %+v", tight.TreeMisses, tight)
	}
	loose := run(1600)
	if loose.OnTimeTree != loose.Expected {
		t.Fatalf("misses at 4x headroom: %+v", loose)
	}
	if loose.OnTimeFraction() <= tight.OnTimeFraction() {
		t.Fatal("delivered fraction did not improve with capacity")
	}

	// A receiver with no downlink takes no share of the source's
	// uplink: its transfers are never admitted, so at one rung of uplink
	// the other child still gets every chunk in time.
	engine, pl := world(t, 3, 400, 100000)
	pl.cont.down[2] = 0
	tr := alm.NewTree(0)
	tr.Attach(1, 0)
	tr.Attach(2, 0)
	p, err := pl.StartPump(1, 0, []int{1, 2}, func() *alm.Tree { return tr }, nil, 0, Config{
		BitrateKbps: 400, Chunks: 10, PullNeighbors: 0, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(60 * eventsim.Second)
	if st := p.Finalize(); st.OnTimeTree != 10 || st.Lost != 10 {
		t.Fatalf("outcomes %+v beside a zero-downlink sibling, want member 1's 10 on time and member 2's 10 lost", st)
	}
}

func TestPumpPullRecoversDetachedMember(t *testing.T) {
	// Member 3 is not in the tree at all (a detached subtree the
	// control plane has not repaired): every chunk is a tree miss, and
	// mesh-pull from fellow members recovers all of them in time.
	engine, pl := world(t, 4, 10000, 10000)
	tr := chain(0, 1, 2)
	p, err := pl.StartPump(1, 0, []int{1, 2, 3}, func() *alm.Tree { return tr }, nil, 0, Config{
		BitrateKbps: 400, Chunks: 10, PullNeighbors: 2, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(60 * eventsim.Second)
	st := p.Finalize()
	if st.TreeMisses != 10 {
		t.Fatalf("TreeMisses = %d, want 10 (member 3's whole stream)", st.TreeMisses)
	}
	if st.PullRecovered != 10 || st.Late != 0 || st.Lost != 0 {
		t.Fatalf("attribution %+v, want all 10 misses pull-recovered", st)
	}
	if st.PullRecovered+st.Late+st.Lost != st.TreeMisses {
		t.Fatalf("attribution does not partition tree misses: %+v", st)
	}
	if st.OnTimeTree != 20 {
		t.Fatalf("OnTimeTree = %d, want 20 (members 1, 2)", st.OnTimeTree)
	}
	if got := st.OnTimeFraction(); got != 1 {
		t.Fatalf("OnTimeFraction = %v, want 1 (20 on time via the tree, 10 pulled in time)", got)
	}
	// A pulled copy that lands exactly at its deadline is recovered. With
	// Playout 150 ms, member 2 (detached) pulls from member 1 at 90 ms
	// after emission; the request takes 10 ms and the copy 40 + 10 ms.
	engine1, pl1 := world(t, 3, 10000, 10000)
	p1, err := pl1.StartPump(1, 0, []int{1, 2}, func() *alm.Tree { return chain(0, 1) }, nil, 0, Config{
		BitrateKbps: 400, Chunks: 10, Playout: 150, PullNeighbors: 1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine1.RunUntil(60 * eventsim.Second)
	if st1 := p1.Finalize(); st1.PullRecovered != 10 || st1.Late != 0 {
		t.Fatalf("outcomes %+v with pulled copies landing at the deadline, want 10 pull-recovered", st1)
	}
	// Without the mesh the same detachment is a total loss.
	engine2, pl2 := world(t, 4, 10000, 10000)
	p2, err := pl2.StartPump(1, 0, []int{1, 2, 3}, func() *alm.Tree { return tr }, nil, 0, Config{
		BitrateKbps: 400, Chunks: 10, PullNeighbors: 0, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine2.RunUntil(60 * eventsim.Second)
	if st2 := p2.Finalize(); st2.Lost != 10 || st2.PullsSent != 0 {
		t.Fatalf("pull-disabled outcomes %+v, want 10 lost", st2)
	}
}

func TestPumpRoutingSwapsLive(t *testing.T) {
	// Chunks 0-5 fan out 0->{1,2}; at 5.5s a "replan" reroutes to the
	// chain 0->1->2. Forwarding re-reads the tree, so the source's
	// transfer bytes drop from 2 chunks/emission to 1 with no restart.
	engine, pl := world(t, 3, 10000, 10000)
	fan := alm.NewTree(0)
	fan.Attach(1, 0)
	fan.Attach(2, 0)
	cur := fan
	p, err := pl.StartPump(1, 0, []int{1, 2}, func() *alm.Tree { return cur }, nil, 0, Config{
		BitrateKbps: 400, Chunks: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.At(5500, func() { cur = chain(0, 1, 2) })
	engine.RunUntil(60 * eventsim.Second)
	st := p.Finalize()
	if st.OnTimeTree != st.Expected {
		t.Fatalf("reroute dropped chunks: %+v", st)
	}
	// 6 emissions x 2 copies + 4 emissions x 1 copy from the source;
	// 4 relayed copies from host 1. Chunk = 50 KB.
	const chunk = 50000
	if st.SourceTxBytes != 16*chunk {
		t.Fatalf("SourceTxBytes = %d, want %d", st.SourceTxBytes, 16*chunk)
	}
	if st.TotalTxBytes != 20*chunk {
		t.Fatalf("TotalTxBytes = %d, want %d", st.TotalTxBytes, 20*chunk)
	}
}

func TestPumpDeadSourceEmitsNothing(t *testing.T) {
	engine, pl := world(t, 3, 10000, 10000)
	tr := chain(0, 1, 2)
	deadFrom := eventsim.Time(4500)
	alive := func(h int) bool {
		return h != 0 || pl.net.Now() < deadFrom
	}
	p, err := pl.StartPump(1, 0, []int{1, 2}, func() *alm.Tree { return tr }, alive, 0, Config{
		BitrateKbps: 400, Chunks: 10, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(60 * eventsim.Second)
	st := p.Finalize()
	// Chunks 0-4 emitted before the source died; 5-9 never became due.
	if st.Expected != 10 {
		t.Fatalf("Expected = %d, want 10 (2 members x 5 emitted chunks)", st.Expected)
	}
	if st.OnTimeTree != 10 {
		t.Fatalf("outcomes %+v, want the 5 emitted chunks delivered", st)
	}
}

func TestCapacityBound(t *testing.T) {
	// Source-limited: a weak source caps the stream regardless of
	// receiver wealth.
	if got := CapacityBound(300, []float64{10000, 10000}); got != 300 {
		t.Fatalf("source-limited bound = %v, want 300", got)
	}
	// Receiver-limited: r* = (1000 + 100 + 100) / 2 = 600.
	if got := CapacityBound(1000, []float64{100, 100}); got != 600 {
		t.Fatalf("receiver-limited bound = %v, want 600", got)
	}
	if got := CapacityBound(700, nil); got != 700 {
		t.Fatalf("no-receiver bound = %v, want 700", got)
	}
}

func TestPumpPullDefaultsScaleWithChunkDuration(t *testing.T) {
	// Regression: Playout (and with it PullStart = 60% of Playout) must
	// derive from the configured ChunkDur. With a 4x chunk override
	// (4 s chunks at 500 kbps = 250 KB) and a 1200 kbps source uplink
	// fanned out to two children, each first-hop transfer needs ~3.4 s
	// — comfortably inside one 4 s chunk interval. Under the old fixed
	// 3 s Playout default every chunk was declared late and pulls fired
	// at 1.8 s, before the tree had any chance to deliver; with Playout
	// = 3 * ChunkDur = 12 s the tree delivers everything and the mesh
	// stays silent.
	engine, pl := world(t, 3, 1200, 100000)
	tr := alm.NewTree(0)
	tr.Attach(1, 0)
	tr.Attach(2, 0)
	p, err := pl.StartPump(1, 0, []int{1, 2}, func() *alm.Tree { return tr }, nil, 0, Config{
		BitrateKbps: 500, ChunkDur: 4 * eventsim.Second, Chunks: 8,
		PullNeighbors: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(120 * eventsim.Second)
	st := p.Finalize()
	if st.Expected != 16 {
		t.Fatalf("Expected = %d, want 16 (2 members x 8 chunks)", st.Expected)
	}
	if st.PullsSent != 0 {
		t.Fatalf("PullsSent = %d: pulls fired before the tree could deliver a 4x chunk", st.PullsSent)
	}
	if st.OnTimeTree != st.Expected {
		t.Fatalf("outcomes %+v, want every chunk on time via the tree", st)
	}
}

// numericFields calls visit on every int or float field under v (an
// eventsim.Time is a float), named by its path.
func numericFields(v reflect.Value, path string, visit func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			numericFields(v.Field(i), strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), visit)
		}
	case reflect.Int, reflect.Int64, reflect.Float64:
		visit(path, v)
	}
}

// TestDerivedDefaultsFollowTheirBases is the property the derived-
// defaults table promises: the defaults are the documented ones; a base
// set to k times its default, every other field left unset, scales each
// value derived from it by exactly k (powers of two keep the products
// exact) and leaves every other value at its default; a derived field
// set explicitly is kept; and every time or rate field is classified,
// so a timer added without a row fails.
func TestDerivedDefaultsFollowTheirBases(t *testing.T) {
	table := []struct {
		base    string
		derived []string
	}{
		{"ChunkDur", []string{"Playout", "pullStart", "pullRetry", "pullTimeout"}},
		{"Playout", []string{"pullStart"}},
		{"BitrateKbps", nil}, // required: no default, nothing follows it
	}
	effective := func(c Config) map[string]float64 {
		c = c.withDefaults()
		start, retry, timeout := c.pullTimings()
		m := map[string]float64{"pullStart": float64(start), "pullRetry": float64(retry), "pullTimeout": float64(timeout)}
		numericFields(reflect.ValueOf(c), "", func(name string, f reflect.Value) {
			if f.CanFloat() {
				m[name] = f.Float()
			} else {
				m[name] = float64(f.Int())
			}
		})
		return m
	}
	set := func(c *Config, name string, v float64) {
		numericFields(reflect.ValueOf(c).Elem(), "", func(n string, f reflect.Value) {
			if n == name {
				f.SetFloat(v)
			}
		})
	}
	def := effective(Config{})
	// The defaults themselves (times in virtual milliseconds).
	for name, want := range map[string]float64{
		"ChunkDur": 1000, "Playout": 3000, "pullStart": 1800, "pullRetry": 500, "pullTimeout": 2000,
	} {
		if def[name] != want {
			t.Errorf("default %s = %v, want %v", name, def[name], want)
		}
	}

	named := map[string]bool{}
	for _, row := range table {
		named[row.base] = true
		for _, d := range row.derived {
			named[d] = true
		}
	}
	numericFields(reflect.ValueOf(Config{}), "", func(name string, f reflect.Value) {
		if f.CanFloat() && !named[name] {
			t.Errorf("Config.%s is in no row of the derived-defaults table", name)
		}
	})

	for _, row := range table {
		follows := map[string]bool{row.base: true}
		for _, d := range row.derived {
			follows[d] = true
		}
		for _, k := range []float64{1.0 / 4096, 1.0 / 8, 1.0 / 2, 2, 8} {
			var c Config
			set(&c, row.base, k*def[row.base])
			for name, got := range effective(c) {
				want := def[name]
				if follows[name] {
					want *= k
				}
				if got != want {
					t.Errorf("%s at %v × default: %s = %v, want %v", row.base, k, name, got, want)
				}
			}
			for _, d := range row.derived {
				if _, field := reflect.TypeOf(c).FieldByName(d); field {
					c := c
					set(&c, d, 3*def[d])
					if got := effective(c)[d]; got != 3*def[d] {
						t.Errorf("%s set to %v beside %s at %v × default came out %v", d, 3*def[d], row.base, k, got)
					}
				}
			}
		}
	}
}

func TestPumpEventBudget(t *testing.T) {
	// What a stream costs the event queue, to the event. On a static
	// loss-free chain with pulls on, a chunk is one emission, one pull
	// round (which finds every member served and does not re-arm) and,
	// per tree edge, a transfer completion and a delivery — whatever the
	// roster size. Before PR 24 the round was one event per member, and
	// every emission of the stream sat in the queue from the start.
	const n, chunks = 6, 12
	engine, pl := world(t, n, 10000, 10000)
	tr := chain(0, 1, 2, 3, 4, 5)
	p, err := pl.StartPump(1, 0, []int{1, 2, 3, 4, 5}, func() *alm.Tree { return tr }, nil, 0, Config{
		BitrateKbps: 400, Chunks: chunks, PullNeighbors: 2, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := engine.Pending(); got != 1 {
		t.Fatalf("Pending = %d after StartPump, want 1 (the emit timer)", got)
	}
	engine.Run(0)
	if got, want := engine.Processed(), uint64(chunks*(1+1+2*(n-1))); got != want {
		t.Fatalf("Processed = %d, want %d = %d chunks x (emit + pull round + 2 x %d edges)", got, want, chunks, n-1)
	}
	if st := p.Finalize(); st.OnTimeTree != chunks*(n-1) || st.PullsSent != 0 {
		t.Fatalf("outcomes %+v, want every chunk on time via the tree and no pull sent", st)
	}
}

func TestStartPumpInThePastRegistersNothing(t *testing.T) {
	engine, pl := world(t, 2, 10000, 10000)
	tr := chain(0, 1)
	engine.RunUntil(500)
	start := func(at eventsim.Time) error {
		_, err := pl.StartPump(1, 0, []int{1}, func() *alm.Tree { return tr }, nil, at, Config{BitrateKbps: 400, Chunks: 3})
		return err
	}
	if err := start(499); err == nil {
		t.Fatal("StartPump accepted a first emission in the past")
	}
	if got := engine.Pending(); got != 0 {
		t.Fatalf("Pending = %d after a refused StartPump, want 0", got)
	}
	if err := start(500); err != nil {
		t.Fatalf("the refused start left its key behind: %v", err)
	}
}

// TestTransferSteadyStateAllocs pins a transfer's completion to the
// reused runner: once warm, admitting a transfer, completing it and
// delivering its message allocate nothing, on Sim and on faultnet.Net
// over Sim (the benchmark's stream stack).
func TestTransferSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		wrap func(*transport.Sim) transport.Network
	}{
		{"Sim", func(s *transport.Sim) transport.Network { return s }},
		{"faultnet", func(s *transport.Sim) transport.Network { return faultnet.New(s, faultnet.Options{Seed: 1}) }},
	} {
		engine := eventsim.New(1)
		net := c.wrap(transport.NewSim(engine, transport.SimOptions{
			Latency: func(a, b int) float64 { return 10 },
		}))
		delivered := 0
		net.Attach(1, func(transport.Addr, transport.Message) { delivered++ })
		cont := NewContention(net, []float64{1000, 1000}, []float64{1000, 1000})
		msg := transport.Message(chunkMsg{Seq: 1})
		transfer := func() {
			cont.Transfer(0, 1, 1250, msg)
			engine.Run(0)
		}
		transfer()
		if allocs := testing.AllocsPerRun(100, transfer); allocs != 0 {
			t.Errorf("%s: a transfer allocates %.2f times, want 0", c.name, allocs)
		}
		if delivered != 102 || cont.upActive[0] != 0 || cont.downActive[1] != 0 {
			t.Errorf("%s: %d of 102 delivered, active up %d down %d", c.name, delivered, cont.upActive[0], cont.downActive[1])
		}
	}
}
