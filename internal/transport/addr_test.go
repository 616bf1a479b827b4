package transport

import (
	"fmt"
	"strings"
	"testing"
)

// panicsNaming reports whether f panics with a message containing want,
// and the message.
func panicsNaming(f func(), want string) (msg string, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
			ok = strings.Contains(msg, want)
		}
	}()
	f()
	return "no panic", false
}

var noop Handler = func(Addr, Message) {}

// TestSimAddressContract: tables are indexed by address, so a negative
// one panics at the call that hands it in, naming call and address,
// instead of inside the event loop; a send to a detached, never-attached
// or out-of-table address is a counted drop, and so is one to NoAddr.
func TestSimAddressContract(t *testing.T) {
	e, s := newSim(t, SimOptions{})
	for _, c := range []struct {
		call string
		f    func()
	}{
		{"Attach(-1)", func() { s.Attach(NoAddr, noop) }},
		{"SetDown(-1)", func() { s.SetDown(NoAddr, true) }},
		{"SetDown(-7)", func() { s.SetDown(-7, false) }},
	} {
		if msg, ok := panicsNaming(c.f, c.call); !ok {
			t.Errorf("%s: panic %q", c.call, msg)
		}
	}
	s.Detach(NoAddr) // nothing attached there: a no-op, as before
	s.Attach(1, noop)
	s.Attach(2, noop)
	s.Detach(2)
	for _, to := range []Addr{2, 3, 1000, NoAddr} { // detached, never attached, past the table, negative
		s.Send(1, to, 10, "x")
	}
	s.Send(NoAddr, 1, 10, "x") // an unknown sender is not down
	e.Run(0)
	if st := s.Stats(); st.MessagesSent != 5 || st.MessagesDropped != 4 || st.MessagesDelivered != 1 {
		t.Errorf("stats = %+v, want 5 sent, 4 dropped, 1 delivered", st)
	}
	if s.IsDown(NoAddr) || s.IsDown(1000) {
		t.Error("an address outside the down table reads as down")
	}
}

// TestShardedSimAddressContract is the same contract per shard, where
// address a is slot a / shards of shard a % shards: a down mark is found
// only under the address it was set for, and a send to NoAddr stays on
// the sending shard and is dropped there, as on Sim.
func TestShardedSimAddressContract(t *testing.T) {
	s := NewShardedSim(ShardedSimOptions{
		Latency:   func(a, b int) float64 { return 10 },
		Shards:    4,
		Lookahead: 6,
		Seed:      1,
	})
	for _, c := range []struct {
		call string
		f    func()
	}{
		{"Attach(-1)", func() { s.View(0).Attach(NoAddr, noop) }},
		{"SetDown(-1)", func() { s.SetDown(NoAddr, true) }},
		{"SetDown(-5)", func() { s.SetDown(-5, false) }},
	} {
		if msg, ok := panicsNaming(c.f, c.call); !ok {
			t.Errorf("%s: panic %q", c.call, msg)
		}
	}
	delivered := 0
	count := func(Addr, Message) { delivered++ }
	s.View(1).Attach(1, count) // shard 1, slot 0
	s.View(5).Attach(5, count) // shard 1, slot 1
	s.View(2).Attach(2, count)
	s.View(2).Detach(2)
	s.SetDown(1, true)
	for _, to := range []Addr{2, 3, 1001, NoAddr} { // detached, never attached, past every table, negative
		s.View(5).Send(5, to, 10, "x")
	}
	s.View(5).Send(5, 1, 10, "x") // down
	s.View(1).Send(1, 5, 10, "x") // from a down sender
	// A sender from another shard handed to shard 1's view shares slot 0
	// with address 1, which is down; it is not.
	s.View(1).Send(2, 5, 10, "x")
	s.RunUntil(100)
	if st := s.Stats(); st.MessagesSent != 7 || st.MessagesDropped != 6 || st.MessagesDelivered != 1 || delivered != 1 {
		t.Errorf("stats = %+v, %d handled; want 7 sent, 6 dropped, 1 delivered", st, delivered)
	}
}
