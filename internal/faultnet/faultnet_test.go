package faultnet

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"p2ppool/internal/eventsim"
	"p2ppool/internal/transport"
)

func flat(a, b int) float64 {
	if a == b {
		return 0
	}
	return 10
}

func newNet(seed int64) (*eventsim.Engine, *transport.Sim, *Net) {
	e := eventsim.New(seed)
	sim := transport.NewSim(e, transport.SimOptions{Latency: flat})
	return e, sim, New(sim, Options{Seed: seed + 1})
}

// With no rules configured the layer must be a pure pass-through: same
// arrival times as the raw Sim and no random draws.
func TestPassThroughTransparency(t *testing.T) {
	type arrival struct {
		from transport.Addr
		msg  transport.Message
		at   eventsim.Time
	}
	run := func(wrap bool) []arrival {
		e := eventsim.New(7)
		sim := transport.NewSim(e, transport.SimOptions{Latency: flat})
		var net transport.Network = sim
		if wrap {
			net = New(sim, Options{Seed: 99})
		}
		var got []arrival
		net.Attach(2, func(from transport.Addr, msg transport.Message) {
			got = append(got, arrival{from, msg, e.Now()})
			// Consume engine randomness like a protocol would; the
			// sequence must be unaffected by the wrapper.
			net.Rand().Float64()
		})
		for i := 0; i < 20; i++ {
			net.Send(1, 2, 10, i)
		}
		e.Run(0)
		return got
	}
	raw, wrapped := run(false), run(true)
	if len(raw) != len(wrapped) {
		t.Fatalf("arrival counts differ: %d vs %d", len(raw), len(wrapped))
	}
	for i := range raw {
		if raw[i] != wrapped[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, raw[i], wrapped[i])
		}
	}
}

func TestLinkLoss(t *testing.T) {
	e, _, f := newNet(1)
	delivered := 0
	f.Attach(2, func(transport.Addr, transport.Message) { delivered++ })
	f.Attach(3, func(transport.Addr, transport.Message) { delivered++ })
	f.SetLinkLoss(1, 2, 1.0)
	for i := 0; i < 10; i++ {
		f.Send(1, 2, 8, i) // dropped: lossy link
		f.Send(1, 3, 8, i) // unaffected
	}
	e.Run(0)
	if delivered != 10 {
		t.Errorf("delivered = %d, want 10", delivered)
	}
	if c := f.Counters(); c.LinkDrops != 10 {
		t.Errorf("LinkDrops = %d, want 10", c.LinkDrops)
	}
	// Removing the rule restores the link.
	f.SetLinkLoss(1, 2, 0)
	f.Send(1, 2, 8, "again")
	e.Run(0)
	if delivered != 11 {
		t.Errorf("delivered = %d after heal, want 11", delivered)
	}
}

func TestNodeLoss(t *testing.T) {
	e, _, f := newNet(2)
	delivered := 0
	f.Attach(2, func(transport.Addr, transport.Message) { delivered++ })
	f.SetNodeLoss(2, 1.0)
	f.Send(1, 2, 8, "in")  // dropped: receiver rule
	f.Send(2, 1, 8, "out") // dropped: sender rule
	e.Run(0)
	if delivered != 0 {
		t.Errorf("delivered = %d, want 0", delivered)
	}
	if c := f.Counters(); c.NodeDrops != 2 {
		t.Errorf("NodeDrops = %d, want 2", c.NodeDrops)
	}
}

func TestJitterDelaysAndIsDeterministic(t *testing.T) {
	run := func() []eventsim.Time {
		e, _, f := newNet(3)
		var at []eventsim.Time
		f.Attach(2, func(transport.Addr, transport.Message) { at = append(at, e.Now()) })
		f.SetJitter(50)
		for i := 0; i < 10; i++ {
			f.Send(1, 2, 8, i)
		}
		e.Run(0)
		return at
	}
	a, b := run(), run()
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("lengths = %d, %d", len(a), len(b))
	}
	sawJitter := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed jitter runs diverge")
		}
		if a[i] < 10 || a[i] >= 60+10 {
			t.Errorf("arrival %v outside [latency, latency+jitter)", a[i])
		}
		if a[i] != 10 {
			sawJitter = true
		}
	}
	if !sawJitter {
		t.Error("no message was actually jittered")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	e, _, f := newNet(4)
	got := map[transport.Addr]int{}
	for a := transport.Addr(1); a <= 5; a++ {
		a := a
		f.Attach(a, func(transport.Addr, transport.Message) { got[a]++ })
	}
	// Groups {1,2} and {3,4}; 5 is unlisted and talks to everyone.
	f.Partition([]transport.Addr{1, 2}, []transport.Addr{3, 4})
	if !f.Partitioned(1, 3) || f.Partitioned(1, 2) || f.Partitioned(1, 5) {
		t.Fatal("Partitioned() misclassifies")
	}
	f.Send(1, 3, 8, "cross")  // dropped
	f.Send(3, 1, 8, "cross2") // dropped (bidirectional)
	f.Send(1, 2, 8, "same")   // delivered
	f.Send(5, 1, 8, "free")   // delivered
	f.Send(3, 5, 8, "free2")  // delivered
	e.Run(0)
	if got[3] != 0 || got[1] != 1 || got[2] != 1 || got[5] != 1 {
		t.Errorf("deliveries = %v", got)
	}
	if c := f.Counters(); c.PartitionDrops != 2 {
		t.Errorf("PartitionDrops = %d, want 2", c.PartitionDrops)
	}
	f.Heal()
	f.Send(1, 3, 8, "healed")
	e.Run(0)
	if got[3] != 1 {
		t.Error("healed partition still drops")
	}
}

func TestCrashRestartAndHooks(t *testing.T) {
	e, _, f := newNet(5)
	delivered := 0
	f.Attach(2, func(transport.Addr, transport.Message) { delivered++ })
	var events []string
	f.OnCrash(func(a transport.Addr) { events = append(events, "crash") })
	f.OnRestart(func(a transport.Addr) { events = append(events, "restart") })

	// A message in flight when the receiver crashes drops at delivery.
	f.Send(1, 2, 8, "inflight")
	f.Crash(2)
	f.Crash(2) // no-op
	e.Run(0)
	if delivered != 0 {
		t.Error("in-flight message delivered to crashed node")
	}
	f.Send(1, 2, 8, "to crashed") // dropped at send
	f.Send(2, 1, 8, "from crashed")
	e.Run(0)
	c := f.Counters()
	if c.CrashDrops != 3 {
		t.Errorf("CrashDrops = %d, want 3", c.CrashDrops)
	}
	if c.Crashes != 1 {
		t.Errorf("Crashes = %d, want 1", c.Crashes)
	}
	if !f.Crashed(2) || len(f.CrashedAddrs()) != 1 {
		t.Error("crash state not reported")
	}

	f.Restart(2)
	f.Restart(2) // no-op
	f.Send(1, 2, 8, "back")
	e.Run(0)
	if delivered != 1 {
		t.Error("restarted node should receive")
	}
	if got := f.Counters().Restarts; got != 1 {
		t.Errorf("Restarts = %d, want 1", got)
	}
	if len(events) != 2 || events[0] != "crash" || events[1] != "restart" {
		t.Errorf("hook order = %v", events)
	}
}

func TestScriptedFaults(t *testing.T) {
	e, _, f := newNet(6)
	delivered := []eventsim.Time{}
	f.Attach(2, func(transport.Addr, transport.Message) { delivered = append(delivered, e.Now()) })
	f.CrashAt(100, 2)
	f.RestartAt(200, 2)
	f.Install([]Step{
		{At: 300, Do: func(f *Net) { f.SetLinkLoss(1, 2, 1.0) }},
		{At: 400, Do: func(f *Net) { f.SetLinkLoss(1, 2, 0) }},
	})
	// One probe every 50 ms for 500 ms.
	for at := eventsim.Time(50); at <= 500; at += 50 {
		at := at
		f.After(at, func() { f.Send(1, 2, 8, at) })
	}
	e.Run(0)
	// Probes at 50 arrive; 100..150 (send during crash) drop; 200+ OK
	// again until the lossy window [300,400) eats 300 and 350.
	want := []eventsim.Time{60, 210, 260, 410, 460, 510}
	if len(delivered) != len(want) {
		t.Fatalf("deliveries at %v, want %v", delivered, want)
	}
	for i := range want {
		if delivered[i] != want[i] {
			t.Fatalf("deliveries at %v, want %v", delivered, want)
		}
	}
}

func TestFlashCrowd(t *testing.T) {
	e, _, f := newNet(8)
	type join struct {
		i  int
		at eventsim.Time
	}
	var joins []join
	f.Install(FlashCrowd(1000, 4, 200, func(i int, f *Net) {
		joins = append(joins, join{i, f.Now()})
	}))
	e.Run(0)
	// Four joins evenly over [1000, 1200): 1000, 1050, 1100, 1150, in
	// arrival order.
	want := []eventsim.Time{1000, 1050, 1100, 1150}
	if len(joins) != len(want) {
		t.Fatalf("joins = %v, want times %v", joins, want)
	}
	for i, j := range joins {
		if j.i != i || j.at != want[i] {
			t.Fatalf("join %d = %+v, want index %d at %v", i, j, i, want[i])
		}
	}

	// Zero window fires the whole crowd at one instant.
	joins = nil
	f.Install(FlashCrowd(2000, 3, 0, func(i int, f *Net) {
		joins = append(joins, join{i, f.Now()})
	}))
	e.Run(0)
	if len(joins) != 3 {
		t.Fatalf("zero-window crowd fired %d joins, want 3", len(joins))
	}
	for i, j := range joins {
		if j.i != i || j.at != 2000 {
			t.Fatalf("zero-window join %d = %+v, want index %d at 2000", i, j, i)
		}
	}

	// Empty crowds produce no script at all.
	if got := FlashCrowd(0, 0, 100, func(int, *Net) {}); got != nil {
		t.Fatalf("FlashCrowd(n=0) = %v, want nil", got)
	}
}

// TestAddressContract: the handler and crash tables are indexed by
// address, so a negative one panics at Attach or Crash, naming call and
// address; asking about or restarting an address outside the table is a
// no-op; a send to a detached or never-attached address is the wrapped
// network's counted drop; CrashedAddrs stays ascending.
func TestAddressContract(t *testing.T) {
	e, sim, f := newNet(9)
	h := func(transport.Addr, transport.Message) {}
	for _, c := range []struct {
		call string
		f    func()
	}{
		{"Attach(-1)", func() { f.Attach(transport.NoAddr, h) }},
		{"Crash(-3)", func() { f.Crash(-3) }},
	} {
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			c.f()
			return "no panic"
		}()
		if !strings.Contains(msg, c.call) {
			t.Errorf("%s: panic %q", c.call, msg)
		}
	}
	if f.Crashed(transport.NoAddr) || f.Crashed(1000) {
		t.Error("an address outside the crash table reads as crashed")
	}
	f.Restart(1000)
	f.Detach(transport.NoAddr)

	f.Attach(1, h)
	f.Attach(2, h)
	f.Detach(2)
	f.Send(1, 2, 8, "detached")
	f.Send(1, 3, 8, "never attached")
	e.Run(0)
	if st := sim.Stats(); st.MessagesDropped != 2 {
		t.Errorf("transport dropped %d, want 2", st.MessagesDropped)
	}
	if c := f.Counters(); c != (Counters{}) {
		t.Errorf("faultnet counted %+v for drops that were not faults", c)
	}

	for _, a := range []transport.Addr{7, 3, 1000, 3} {
		f.Crash(a)
	}
	f.Restart(7)
	if got, want := f.CrashedAddrs(), []transport.Addr{3, 1000}; !slices.Equal(got, want) {
		t.Errorf("CrashedAddrs = %v, want %v", got, want)
	}
}
