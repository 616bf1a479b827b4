package dht

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"p2ppool/internal/eventsim"
	"p2ppool/internal/ids"
	"p2ppool/internal/transport"
)

// testNet builds an engine + simulated network with uniform latency.
func testNet(seed int64) (*eventsim.Engine, *transport.Sim) {
	e := eventsim.New(seed)
	net := transport.NewSim(e, transport.SimOptions{
		Latency: func(a, b int) float64 {
			if a == b {
				return 0
			}
			return 5
		},
	})
	return e, net
}

// buildTestRing creates a static ring of n nodes with addresses 0..n-1.
func buildTestRing(t *testing.T, net transport.Network, n int, cfg Config, seed int64) []*Node {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	idList := RandomIDs(n, r)
	addrs := make([]transport.Addr, n)
	for i := range addrs {
		addrs[i] = transport.Addr(i)
	}
	nodes, err := BuildRing(net, idList, addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

func TestBuildRingConsistent(t *testing.T) {
	_, net := testNet(1)
	nodes := buildTestRing(t, net, 32, Config{}, 7)
	if err := CheckRing(nodes); err != nil {
		t.Fatal(err)
	}
	// Zones must tile the ring: every key owned by exactly one node.
	r := rand.New(rand.NewSource(5))
	for probe := 0; probe < 300; probe++ {
		k := ids.Random(r)
		owners := 0
		for _, nd := range nodes {
			if nd.Zone().Contains(k) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("key %v owned by %d nodes", k, owners)
		}
	}
}

func TestBuildRingErrors(t *testing.T) {
	_, net := testNet(1)
	if _, err := BuildRing(net, []ids.ID{1, 2}, []transport.Addr{0}, Config{}); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, err := BuildRing(net, nil, nil, Config{}); err == nil {
		t.Error("empty ring should fail")
	}
	if _, err := BuildRing(net, []ids.ID{1, 1}, []transport.Addr{0, 1}, Config{}); err == nil {
		t.Error("duplicate IDs should fail")
	}
}

func TestSmallRingLeafsets(t *testing.T) {
	_, net := testNet(1)
	nodes := buildTestRing(t, net, 3, Config{LeafsetRadius: 16}, 2)
	for _, nd := range nodes {
		if nd.LeafsetSize() != 2 {
			t.Errorf("node %v leafset size %d, want 2", nd.Self(), nd.LeafsetSize())
		}
	}
}

func TestRouteDeliversToOwner(t *testing.T) {
	e, net := testNet(1)
	nodes := buildTestRing(t, net, 64, Config{}, 3)
	delivered := make(map[ids.ID]Entry) // key -> node that delivered
	for _, nd := range nodes {
		nd := nd
		nd.OnRouted(func(key ids.ID, from Entry, hops int, payload interface{}) {
			delivered[key] = nd.Self()
		})
	}
	r := rand.New(rand.NewSource(9))
	keys := make([]ids.ID, 50)
	for i := range keys {
		keys[i] = ids.Random(r)
		src := nodes[r.Intn(len(nodes))]
		src.Route(keys[i], 100, "payload")
	}
	e.RunUntil(10 * eventsim.Second)
	for _, k := range keys {
		owner, ok := delivered[k]
		if !ok {
			t.Fatalf("key %v never delivered", k)
		}
		// Verify it was the true owner.
		for _, nd := range nodes {
			if nd.Zone().Contains(k) && nd.Self() != owner {
				t.Fatalf("key %v delivered to %v, true owner %v", k, owner, nd.Self())
			}
		}
	}
}

func TestRouteLocalDelivery(t *testing.T) {
	_, net := testNet(1)
	nodes := buildTestRing(t, net, 8, Config{}, 4)
	nd := nodes[0]
	var got ids.ID
	nd.OnRouted(func(key ids.ID, from Entry, hops int, payload interface{}) { got = key })
	key := nd.Self().ID // own ID is always owned
	nd.Route(key, 10, "x")
	if got != key {
		t.Error("local key should deliver synchronously")
	}
}

func TestRouteHopCountLogarithmic(t *testing.T) {
	// With fingers enabled, average hops should be O(log N), far below
	// the O(N) of the bare ring.
	e, net := testNet(2)
	cfg := Config{LeafsetRadius: 4, Fingers: 24, FixFingersInterval: 500}
	nodes := buildTestRing(t, net, 128, cfg, 5)
	// Let finger maintenance warm the tables.
	e.RunUntil(60 * eventsim.Second)

	totalHops, delivered := 0, 0
	for _, nd := range nodes {
		nd.OnRouted(func(key ids.ID, from Entry, hops int, payload interface{}) {
			totalHops += hops
			delivered++
		})
	}
	r := rand.New(rand.NewSource(13))
	const msgs = 200
	for i := 0; i < msgs; i++ {
		nodes[r.Intn(len(nodes))].Route(ids.Random(r), 10, "probe")
	}
	e.RunUntil(120 * eventsim.Second)
	if delivered != msgs {
		t.Fatalf("delivered %d of %d messages", delivered, msgs)
	}
	avgHops := float64(totalHops) / msgs
	if avgHops > 12 {
		t.Errorf("average hops %.1f too high for 128 nodes with fingers", avgHops)
	}
}

func TestRouteWithoutFingersStillDelivers(t *testing.T) {
	e, net := testNet(12)
	cfg := Config{LeafsetRadius: 4, Fingers: -1, MaxHops: 256}
	nodes := buildTestRing(t, net, 64, cfg, 21)
	delivered := 0
	for _, nd := range nodes {
		nd.OnRouted(func(key ids.ID, from Entry, hops int, payload interface{}) {
			delivered++
		})
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		nodes[r.Intn(len(nodes))].Route(ids.Random(r), 10, "x")
	}
	e.RunUntil(2 * eventsim.Minute)
	if delivered != 50 {
		t.Fatalf("delivered %d of 50 without fingers", delivered)
	}
}

func TestJoinProtocol(t *testing.T) {
	e, net := testNet(3)
	cfg := Config{LeafsetRadius: 8}
	nodes := buildTestRing(t, net, 16, cfg, 6)
	e.RunUntil(5 * eventsim.Second)

	// Join 8 new nodes through random seeds.
	r := rand.New(rand.NewSource(77))
	newIDs := RandomIDs(100, r)[90:] // distinct from existing w.h.p.
	joined := make([]*Node, 0, 8)
	for i, id := range newIDs[:8] {
		nd := NewNode(net, id, transport.Addr(1000+i), cfg)
		seed := nodes[r.Intn(len(nodes))].Self()
		nd.Join(seed)
		joined = append(joined, nd)
	}
	e.RunUntil(60 * eventsim.Second)

	all := append(append([]*Node{}, nodes...), joined...)
	SortByID(all)
	if err := CheckRing(all); err != nil {
		t.Fatalf("ring inconsistent after joins: %v", err)
	}
}

func TestLeaveRepairsRing(t *testing.T) {
	e, net := testNet(4)
	nodes := buildTestRing(t, net, 24, Config{LeafsetRadius: 8}, 8)
	e.RunUntil(5 * eventsim.Second)

	leaver := nodes[5]
	leaver.Leave()
	e.RunUntil(30 * eventsim.Second)

	rest := append(append([]*Node{}, nodes[:5]...), nodes[6:]...)
	SortByID(rest)
	if err := CheckRing(rest); err != nil {
		t.Fatalf("ring inconsistent after leave: %v", err)
	}
}

func TestCrashFailureDetection(t *testing.T) {
	e, net := testNet(5)
	cfg := Config{LeafsetRadius: 8, HeartbeatInterval: eventsim.Second, FailureTimeout: 3 * eventsim.Second}
	nodes := buildTestRing(t, net, 24, cfg, 9)
	e.RunUntil(5 * eventsim.Second)

	// Crash two adjacent nodes without notification.
	nodes[3].Stop()
	nodes[4].Stop()
	net.SetDown(nodes[3].Self().Addr, true)
	net.SetDown(nodes[4].Self().Addr, true)
	e.RunUntil(60 * eventsim.Second)

	rest := make([]*Node, 0, 22)
	for i, nd := range nodes {
		if i != 3 && i != 4 {
			rest = append(rest, nd)
		}
	}
	SortByID(rest)
	if err := CheckRing(rest); err != nil {
		t.Fatalf("ring did not self-repair after crashes: %v", err)
	}
	// Survivors should have recorded failures.
	totalFailures := uint64(0)
	for _, nd := range rest {
		totalFailures += nd.Stats().Failures
	}
	if totalFailures == 0 {
		t.Error("no failures recorded by survivors")
	}
}

func TestZoneChangeCallback(t *testing.T) {
	e, net := testNet(6)
	cfg := Config{LeafsetRadius: 8}
	nodes := buildTestRing(t, net, 8, cfg, 10)
	e.RunUntil(2 * eventsim.Second)

	target := nodes[2]

	// Join a node whose ID lands inside target's zone: its predecessor
	// changes, so its zone must shrink.
	z := target.Zone()
	mid := ids.Add(z.Start, ids.Dist(z.Start, z.End)/2)
	if mid == z.End {
		t.Skip("degenerate zone")
	}
	nd := NewNode(net, mid, transport.Addr(500), cfg)
	nd.Join(nodes[0].Self())
	e.RunUntil(30 * eventsim.Second)

	if got := target.Zone().Start; got != mid {
		t.Errorf("target predecessor = %v, want %v", got, mid)
	}
}

func TestSendApp(t *testing.T) {
	e, net := testNet(7)
	nodes := buildTestRing(t, net, 4, Config{}, 11)
	var got interface{}
	var from Entry
	nodes[1].OnApp(func(f Entry, payload interface{}) { from, got = f, payload })
	nodes[0].SendApp(nodes[1].Self(), 99, "direct")
	e.RunUntil(eventsim.Second)
	if got != "direct" || from != nodes[0].Self() {
		t.Fatalf("got %v from %v", got, from)
	}
}

type recordingGossip struct {
	sent     int
	received int
	rtts     []float64
}

func (g *recordingGossip) HeartbeatPayload(peer Entry) interface{} {
	g.sent++
	return g.sent
}

func (g *recordingGossip) OnHeartbeat(peer Entry, rtt float64, payload interface{}) {
	if payload != nil {
		g.received++
	}
	if rtt >= 0 {
		g.rtts = append(g.rtts, rtt)
	}
}

func TestGossipPiggyback(t *testing.T) {
	e, net := testNet(8)
	nodes := buildTestRing(t, net, 8, Config{HeartbeatInterval: eventsim.Second}, 12)
	gs := make([]*recordingGossip, len(nodes))
	for i, nd := range nodes {
		gs[i] = &recordingGossip{}
		nd.RegisterGossip(gs[i])
	}
	e.RunUntil(10 * eventsim.Second)
	for i, g := range gs {
		if g.sent == 0 || g.received == 0 {
			t.Fatalf("gossip %d: sent=%d received=%d", i, g.sent, g.received)
		}
		if len(g.rtts) == 0 {
			t.Fatalf("gossip %d measured no RTTs", i)
		}
		for _, rtt := range g.rtts {
			if rtt < 9.99 || rtt > 10.01 { // 2 * 5ms uniform latency
				t.Fatalf("gossip %d: rtt %v, want ~10", i, rtt)
			}
		}
	}
}

func TestHeartbeatTrafficBounded(t *testing.T) {
	e, net := testNet(9)
	cfg := Config{LeafsetRadius: 4, HeartbeatInterval: eventsim.Second}
	nodes := buildTestRing(t, net, 32, cfg, 13)
	e.RunUntil(10 * eventsim.Second)
	// Each node heartbeats at most 2*radius peers per interval; over
	// ~10 intervals that bounds sends per node.
	for _, nd := range nodes {
		if hb := nd.Stats().HeartbeatsSent; hb > 8*11 {
			t.Fatalf("node sent %d heartbeats, want <= %d", hb, 8*11)
		}
	}
}

func TestEntryString(t *testing.T) {
	if NoEntry.String() != "<none>" {
		t.Error("NoEntry string")
	}
	if (Entry{ID: 1, Addr: 2}).String() == "" {
		t.Error("entry string empty")
	}
	if !NoEntry.IsZero() {
		t.Error("NoEntry should be zero")
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
		{"HeartbeatInterval", []string{"FailureTimeout", "suspectTTL", "contactMemory", "tombstone"}},
		{"FailureTimeout", []string{"suspectTTL", "contactMemory", "tombstone"}},
		{"FixFingersInterval", nil},
	}
	effective := func(c Config) map[string]float64 {
		c = c.withDefaults()
		m := map[string]float64{
			"suspectTTL":    float64(c.suspectTTL()),
			"contactMemory": float64(c.contactMemory()),
			"tombstone":     float64(c.tombstone()),
		}
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
		"HeartbeatInterval": 1000, "FailureTimeout": 4000, "FixFingersInterval": 10000,
		"suspectTTL": 120000, "contactMemory": 32000, "tombstone": 8000,
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

// TestSlowHeartbeatDoesNotFlap: a ring whose heartbeat is slower than
// the stock failure timeout must still not suspect its live neighbours,
// because the timeout follows the heartbeat. With a fixed 4 s timeout
// under a 5 s heartbeat this ring declared 16,771 failures.
func TestSlowHeartbeatDoesNotFlap(t *testing.T) {
	e, net := testNet(5)
	nodes := buildTestRing(t, net, 64, Config{LeafsetRadius: 8, HeartbeatInterval: 5 * eventsim.Second}, 17)
	e.RunUntil(5 * eventsim.Minute)
	var failures uint64
	for _, nd := range nodes {
		failures += nd.Stats().Failures
	}
	if failures != 0 {
		t.Fatalf("a crash-free ring declared %d neighbour failures", failures)
	}
}

func TestRandomIDsDistinct(t *testing.T) {
	idList := RandomIDs(1000, rand.New(rand.NewSource(1)))
	seen := make(map[ids.ID]bool)
	for _, id := range idList {
		if seen[id] {
			t.Fatal("duplicate ID")
		}
		seen[id] = true
	}
}

func TestFingerTableConverges(t *testing.T) {
	e, net := testNet(10)
	cfg := Config{LeafsetRadius: 4, Fingers: 16, FixFingersInterval: 200}
	nodes := buildTestRing(t, net, 64, cfg, 14)
	e.RunUntil(2 * eventsim.Minute)
	populated := 0
	for _, nd := range nodes {
		for _, f := range nd.Fingers() {
			if !f.IsZero() {
				populated++
			}
		}
	}
	if populated == 0 {
		t.Fatal("no fingers populated after maintenance")
	}
	// Spot-check correctness: each populated finger must own its target
	// key (or at least be alive in the ring).
	byID := map[ids.ID]*Node{}
	for _, nd := range nodes {
		byID[nd.Self().ID] = nd
	}
	for _, nd := range nodes {
		for i, f := range nd.Fingers() {
			if f.IsZero() {
				continue
			}
			owner, ok := byID[f.ID]
			if !ok {
				t.Fatalf("finger points at unknown node %v", f)
			}
			if !owner.Zone().Contains(nd.fingerTarget(i)) {
				t.Fatalf("finger %d of %v points at %v which does not own target", i, nd.Self(), f)
			}
		}
	}
}
