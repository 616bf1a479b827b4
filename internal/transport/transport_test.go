package transport

import (
	"testing"

	"p2ppool/internal/eventsim"
)

func flatLatency(a, b int) float64 {
	if a == b {
		return 0
	}
	return 10
}

func newSim(t *testing.T, opt SimOptions) (*eventsim.Engine, *Sim) {
	t.Helper()
	e := eventsim.New(1)
	if opt.Latency == nil {
		opt.Latency = flatLatency
	}
	return e, NewSim(e, opt)
}

func TestSimDelivery(t *testing.T) {
	e, net := newSim(t, SimOptions{})
	var got []Message
	var at eventsim.Time
	net.Attach(2, func(from Addr, msg Message) {
		got = append(got, msg)
		at = e.Now()
		if from != 1 {
			t.Errorf("from = %v, want 1", from)
		}
	})
	net.Send(1, 2, 40, "hello")
	e.Run(0)
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("got = %v", got)
	}
	if at != 10 {
		t.Errorf("delivered at %v, want 10 (one-way latency)", at)
	}
	st := net.Stats()
	if st.MessagesSent != 1 || st.MessagesDelivered != 1 || st.BytesSent != 40 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSimDropsToUnattached(t *testing.T) {
	e, net := newSim(t, SimOptions{})
	net.Send(1, 2, 10, "x")
	e.Run(0)
	if st := net.Stats(); st.MessagesDropped != 1 || st.MessagesDelivered != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSimDetach(t *testing.T) {
	e, net := newSim(t, SimOptions{})
	net.Attach(2, func(Addr, Message) { t.Error("detached endpoint received") })
	net.Send(1, 2, 10, "x")
	net.Detach(2)
	e.Run(0)
}

func TestSimDown(t *testing.T) {
	e, net := newSim(t, SimOptions{})
	delivered := 0
	net.Attach(2, func(Addr, Message) { delivered++ })
	net.SetDown(2, true)
	if !net.IsDown(2) {
		t.Error("IsDown should be true")
	}
	net.Send(1, 2, 10, "x")
	e.Run(0)
	if delivered != 0 {
		t.Error("down endpoint received a message")
	}
	net.SetDown(2, false)
	net.Send(1, 2, 10, "y")
	e.Run(0)
	if delivered != 1 {
		t.Error("recovered endpoint should receive")
	}
	// A message in flight when the receiver goes down is dropped.
	net.Send(1, 2, 10, "z")
	net.SetDown(2, true)
	e.Run(0)
	if delivered != 1 {
		t.Error("message in flight to a down endpoint should drop")
	}
}

func TestSimDownSender(t *testing.T) {
	e, net := newSim(t, SimOptions{})
	delivered := 0
	net.Attach(2, func(Addr, Message) { delivered++ })
	net.SetDown(1, true)
	net.Send(1, 2, 10, "x")
	e.Run(0)
	if delivered != 0 {
		t.Error("down sender should not send")
	}
}

func TestSimLoss(t *testing.T) {
	e, net := newSim(t, SimOptions{LossProb: 1.0})
	net.Attach(2, func(Addr, Message) { t.Error("lossy network delivered") })
	for i := 0; i < 10; i++ {
		net.Send(1, 2, 10, i)
	}
	e.Run(0)
	if st := net.Stats(); st.MessagesDropped != 10 {
		t.Errorf("dropped = %d, want 10", st.MessagesDropped)
	}
}

func TestSimPacketPairDispersion(t *testing.T) {
	// 1500-byte messages over a 1000 kbps bottleneck serialize at
	// 12 ms each; two back-to-back sends must arrive 12 ms apart.
	bn := func(src, dst int) float64 { return 1000 }
	e, net := newSim(t, SimOptions{Bottleneck: bn})
	var arrivals []eventsim.Time
	net.Attach(2, func(Addr, Message) { arrivals = append(arrivals, e.Now()) })
	net.Send(1, 2, 1500, "p1")
	net.Send(1, 2, 1500, "p2")
	e.Run(0)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	gap := float64(arrivals[1] - arrivals[0])
	if gap < 11.99 || gap > 12.01 {
		t.Errorf("dispersion = %v ms, want 12", gap)
	}
	// Estimated bottleneck from dispersion: S*8/T = 1500*8/12 = 1000 kbps.
	est := 1500 * 8 / gap
	if est < 999 || est > 1001 {
		t.Errorf("estimated bottleneck = %v, want 1000", est)
	}
}

func TestSimSpacedSendsNoDispersion(t *testing.T) {
	// Messages sent far apart must not interact through lastArrival.
	bn := func(src, dst int) float64 { return 1000 }
	e, net := newSim(t, SimOptions{Bottleneck: bn})
	var arrivals []eventsim.Time
	net.Attach(2, func(Addr, Message) { arrivals = append(arrivals, e.Now()) })
	net.Send(1, 2, 1500, "p1")
	e.Run(0) // first message arrives at 10+12 = 22
	e.At(1000, func() { net.Send(1, 2, 1500, "p2") })
	e.Run(0)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	// Second arrival should be its own latency+serialization after its
	// send time, i.e. 1000+10+12 = 1022.
	if got := float64(arrivals[1]); got < 1021.9 || got > 1022.1 {
		t.Errorf("second arrival = %v, want 1022", got)
	}
}

func TestSimAfterCancel(t *testing.T) {
	e, net := newSim(t, SimOptions{})
	fired := false
	cancel := net.After(10, func() { fired = true })
	if !cancel() {
		t.Error("cancel should succeed")
	}
	e.Run(0)
	if fired {
		t.Error("cancelled timer fired")
	}
}

func TestSimDeterministic(t *testing.T) {
	run := func() []eventsim.Time {
		e := eventsim.New(42)
		net := NewSim(e, SimOptions{Latency: flatLatency, LossProb: 0.3})
		var arrivals []eventsim.Time
		net.Attach(2, func(Addr, Message) { arrivals = append(arrivals, e.Now()) })
		for i := 0; i < 50; i++ {
			net.Send(1, 2, 10, i)
		}
		e.Run(0)
		return arrivals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed runs diverge")
		}
	}
}
