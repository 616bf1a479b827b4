package somo

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"p2ppool/internal/dht"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/transport"
)

// cluster bundles a simulated ring with SOMO agents on every node.
type cluster struct {
	engine *eventsim.Engine
	net    *transport.Sim
	nodes  []*dht.Node
	agents []*Agent
}

func newCluster(t *testing.T, n int, cfg Config, seed int64) *cluster {
	t.Helper()
	e := eventsim.New(seed)
	net := transport.NewSim(e, transport.SimOptions{
		Latency: func(a, b int) float64 {
			if a == b {
				return 0
			}
			return 20
		},
	})
	r := rand.New(rand.NewSource(seed))
	idList := dht.RandomIDs(n, r)
	addrs := make([]transport.Addr, n)
	for i := range addrs {
		addrs[i] = transport.Addr(i)
	}
	nodes, err := dht.BuildRing(net, idList, addrs, dht.Config{LeafsetRadius: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{engine: e, net: net, nodes: nodes}
	for i, nd := range nodes {
		i := i
		nd := nd
		agent := NewAgent(nd, cfg, func() interface{} { return i })
		c.agents = append(c.agents, agent)
	}
	return c
}

// root returns the agent currently hosting the logical root.
func (c *cluster) root(t *testing.T) *Agent {
	t.Helper()
	var root *Agent
	for _, a := range c.agents {
		if a.IsRoot() && a.Node().Active() {
			if root != nil {
				t.Fatal("two agents claim the root")
			}
			root = a
		}
	}
	if root == nil {
		t.Fatal("no agent hosts the root")
	}
	return root
}

func TestSingleRoot(t *testing.T) {
	c := newCluster(t, 32, Config{}, 1)
	c.root(t)
}

func TestGatherReachesRoot(t *testing.T) {
	const n = 64
	c := newCluster(t, n, Config{ReportInterval: eventsim.Second}, 2)
	// Unsynchronized flow needs ~depth * T; depth <= ~4 for 64 nodes
	// at fanout 8. Give it a generous margin.
	c.engine.RunUntil(30 * eventsim.Second)
	root := c.root(t)
	root.refreshRoot()
	snap := root.RootSnapshot()
	if len(snap.Records) != n {
		t.Fatalf("root snapshot has %d records, want %d", len(snap.Records), n)
	}
	// Every record carries its member's payload.
	seen := map[int]bool{}
	for _, rec := range snap.Records {
		seen[rec.Data.(int)] = true
	}
	if len(seen) != n {
		t.Fatalf("distinct payloads = %d, want %d", len(seen), n)
	}
	// Staleness bound: no record should be older than depth*T + slack.
	worst := eventsim.Time(0)
	for _, rec := range snap.Records {
		if age := snap.Time - rec.Time; age > worst {
			worst = age
		}
	}
	if worst > 15*eventsim.Second {
		t.Errorf("worst record staleness %v ms exceeds the log_k(N)*T bound", worst)
	}
}

func TestQueryFromLeaf(t *testing.T) {
	const n = 48
	c := newCluster(t, n, Config{ReportInterval: eventsim.Second}, 3)
	c.engine.RunUntil(30 * eventsim.Second)

	// Pick a non-root agent and query.
	var leaf *Agent
	for _, a := range c.agents {
		if !a.IsRoot() {
			leaf = a
			break
		}
	}
	var got *Snapshot
	leaf.Query(func(s Snapshot) { got = &s })
	c.engine.RunUntil(40 * eventsim.Second)
	if got == nil {
		t.Fatal("query never answered")
	}
	if len(got.Records) != n {
		t.Fatalf("queried snapshot has %d records, want %d", len(got.Records), n)
	}
}

func TestQueryFromRootSynchronous(t *testing.T) {
	c := newCluster(t, 16, Config{ReportInterval: eventsim.Second}, 4)
	c.engine.RunUntil(20 * eventsim.Second)
	root := c.root(t)
	answered := false
	root.Query(func(s Snapshot) {
		answered = true
		if len(s.Records) == 0 {
			t.Error("root self-query returned empty snapshot")
		}
	})
	if !answered {
		t.Fatal("root self-query should answer synchronously")
	}
}

func TestDigestDissemination(t *testing.T) {
	const n = 64
	c := newCluster(t, n, Config{ReportInterval: eventsim.Second}, 5)
	c.engine.RunUntil(60 * eventsim.Second)
	withDigest := 0
	for _, a := range c.agents {
		if a.LatestDigest().Version > 0 {
			withDigest++
		}
	}
	// Every reporter that has ever been acked by a parent chain that
	// heard from the root should have a digest; after 60 virtual
	// seconds that should be nearly everyone.
	if withDigest < n*3/4 {
		t.Errorf("only %d/%d agents received a root digest", withDigest, n)
	}
}

func TestRootFailover(t *testing.T) {
	const n = 32
	c := newCluster(t, n, Config{ReportInterval: eventsim.Second}, 6)
	c.engine.RunUntil(20 * eventsim.Second)
	oldRoot := c.root(t)

	// Crash the root.
	oldRoot.Stop()
	oldRoot.Node().Stop()
	c.net.SetDown(oldRoot.Node().Self().Addr, true)

	// Let the ring repair and reports re-converge.
	c.engine.RunUntil(90 * eventsim.Second)

	var newRoot *Agent
	for _, a := range c.agents {
		if a == oldRoot || !a.Node().Active() {
			continue
		}
		if a.IsRoot() {
			newRoot = a
		}
	}
	if newRoot == nil {
		t.Fatal("no new root emerged after root crash")
	}
	newRoot.refreshRoot()
	snap := newRoot.RootSnapshot()
	if len(snap.Records) < n-1 {
		t.Errorf("recovered snapshot has %d records, want >= %d", len(snap.Records), n-1)
	}
	// The dead root should eventually expire from the snapshot; with
	// RecordTTL = 20s and 70s elapsed since crash it must be gone.
	for _, rec := range snap.Records {
		if rec.Source.ID == oldRoot.Node().Self().ID {
			t.Error("dead root still present in recovered snapshot")
		}
	}
}

func TestSynchronizedFasterThanUnsynchronized(t *testing.T) {
	// Measure worst-record staleness at the root under both flows.
	measure := func(sync bool, seed int64) eventsim.Time {
		cfg := Config{ReportInterval: 5 * eventsim.Second, Synchronized: sync}
		c := newCluster(t, 64, cfg, seed)
		c.engine.RunUntil(3 * eventsim.Minute)
		root := c.root(t)
		root.refreshRoot()
		snap := root.RootSnapshot()
		worst := eventsim.Time(0)
		for _, rec := range snap.Records {
			if age := snap.Time - rec.Time; age > worst {
				worst = age
			}
		}
		if len(snap.Records) != 64 {
			t.Fatalf("sync=%v: snapshot incomplete (%d/64)", sync, len(snap.Records))
		}
		return worst
	}
	unsync := measure(false, 7)
	synced := measure(true, 7)
	if synced >= unsync {
		t.Errorf("synchronized staleness %v >= unsynchronized %v", synced, unsync)
	}
}

func TestAgentStop(t *testing.T) {
	c := newCluster(t, 8, Config{ReportInterval: eventsim.Second}, 8)
	c.engine.RunUntil(5 * eventsim.Second)
	a := c.agents[0]
	sent := a.ReportsSent()
	a.Stop()
	c.engine.RunUntil(20 * eventsim.Second)
	if a.ReportsSent() > sent+1 {
		t.Error("stopped agent kept reporting")
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Fanout != 8 || c.ReportInterval != 5*eventsim.Second {
		t.Errorf("defaults = %+v", c)
	}
	if c.RecordTTL != 100*eventsim.Second {
		t.Errorf("TTL default = %v, want 20*interval", c.RecordTTL)
	}
	c2 := Config{ReportInterval: eventsim.Second}.withDefaults()
	if c2.RecordTTL != 20*eventsim.Second {
		t.Errorf("TTL should scale with interval, got %v", c2.RecordTTL)
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
		{"ReportInterval", []string{"RecordTTL", "QueryTimeout"}},
	}
	effective := func(c Config) map[string]float64 {
		m := map[string]float64{}
		numericFields(reflect.ValueOf(c.withDefaults()), "", func(name string, f reflect.Value) {
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
		"ReportInterval": 5000, "RecordTTL": 100000, "QueryTimeout": 20000,
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
				c := c
				set(&c, d, 3*def[d])
				if got := effective(c)[d]; got != 3*def[d] {
					t.Errorf("%s set to %v beside %s at %v × default came out %v", d, 3*def[d], row.base, k, got)
				}
			}
		}
	}
}

func TestFanoutAblation(t *testing.T) {
	// Smaller fanout means deeper trees and higher gather staleness;
	// verify the tree depth ordering holds for the same membership.
	for _, fanout := range []int{2, 8} {
		c := newCluster(t, 64, Config{Fanout: fanout, ReportInterval: eventsim.Second}, 9)
		maxLevel := 0
		for _, a := range c.agents {
			if l := a.Representative().Level; l > maxLevel {
				maxLevel = l
			}
		}
		// With uniformly random IDs the smallest zone is ~1/N^2 of the
		// space, so rep depth can reach ~2 log_k N.
		want := 1
		for kl := 1; kl < 64; kl *= fanout {
			want++
		}
		if maxLevel > 2*want+2 {
			t.Errorf("fanout %d: max level %d far exceeds expectation %d", fanout, maxLevel, 2*want+2)
		}
		if fanout == 2 && maxLevel < 3 {
			t.Errorf("fanout 2 should give a deep tree, got max level %d", maxLevel)
		}
	}
}
