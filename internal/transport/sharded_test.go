package transport

import (
	"fmt"
	"strings"
	"testing"

	"p2ppool/internal/eventsim"
)

// shardedFixture drives a ping-pong workload over a ShardedSim: every
// host periodically sends to a pseudo-random peer; receivers log
// per-host traces (merged in address order at the end, so the result is
// a deterministic function of the event sequence each shard executed).
// Each host fires about 1.15 events per 6 ms window, so 40 hosts are far
// too light for eventsim to split a window across workers and 1,000 are
// busy enough that it splits every window after the first.
func shardedFixture(t *testing.T, workers int, lossProb float64, hosts int, runtime eventsim.Time) (string, Stats, uint64) {
	t.Helper()
	const (
		shards    = 8
		lookahead = eventsim.Time(6)
	)
	lat := func(a, b int) float64 {
		if a == b {
			return 0
		}
		// >= lookahead for every cross pair; varies by pair for realism.
		return 6 + float64((a*31+b*17)%40)
	}
	s := NewShardedSim(ShardedSimOptions{
		Latency:   lat,
		LossProb:  lossProb,
		Shards:    shards,
		Lookahead: lookahead,
		Workers:   workers,
		Seed:      99,
	})
	traces := make([][]string, hosts)
	for h := 0; h < hosts; h++ {
		h := h
		a := Addr(h)
		net := s.View(a)
		net.Attach(a, func(from Addr, msg Message) {
			traces[h] = append(traces[h], fmt.Sprintf("%d<-%d@%.2f:%v", h, from, float64(net.Now()), msg))
			// Reply to every third message — cross-shard traffic generated
			// from inside delivery events.
			if msg.(int)%3 == 0 {
				net.Send(a, from, 64, msg.(int)+1000)
			}
		})
		var tick func()
		seq := 0
		tick = func() {
			peer := Addr((h*7 + seq*13 + 1) % hosts)
			if peer != a {
				net.Send(a, peer, 128, seq)
			}
			seq++
			net.After(10+eventsim.Time(net.Rand().Intn(5)), tick)
		}
		net.After(eventsim.Time(h%10), tick)
	}
	processed := s.RunUntil(runtime)
	var all strings.Builder
	for _, tr := range traces {
		for _, line := range tr {
			all.WriteString(line + "\n")
		}
	}
	return all.String(), s.Stats(), processed
}

func TestShardedSimWorkerDeterminism(t *testing.T) {
	for _, c := range []struct {
		hosts     int
		runtime   eventsim.Time
		minWindow float64 // fewest events per 6 ms window
	}{
		{40, 2 * eventsim.Second, 0},
		// Busy enough to split (eventsim splits a window after one of
		// 512 events or more): the arm where shards run concurrently
		// unless the package is built with -tags forcesplit.
		{1000, 300 * eventsim.Millisecond, 1000},
	} {
		for _, loss := range []float64{0, 0.05} {
			t1, s1, p1 := shardedFixture(t, 1, loss, c.hosts, c.runtime)
			t4, s4, p4 := shardedFixture(t, 4, loss, c.hosts, c.runtime)
			t16, s16, p16 := shardedFixture(t, 16, loss, c.hosts, c.runtime)
			if t1 != t4 || t1 != t16 {
				t.Errorf("hosts=%d loss=%v: delivery traces differ across workers", c.hosts, loss)
			}
			if s1 != s4 || s1 != s16 {
				t.Errorf("hosts=%d loss=%v: stats differ across workers: %+v %+v %+v", c.hosts, loss, s1, s4, s16)
			}
			if p1 != p4 || p1 != p16 {
				t.Errorf("hosts=%d loss=%v: processed differ across workers: %d %d %d", c.hosts, loss, p1, p4, p16)
			}
			if s1.MessagesDelivered == 0 {
				t.Errorf("hosts=%d loss=%v: no messages delivered", c.hosts, loss)
			}
			if perWindow := float64(p1) / float64(c.runtime/6); perWindow < c.minWindow {
				t.Errorf("hosts=%d: %.0f events per window, want >= %v", c.hosts, perWindow, c.minWindow)
			}
		}
	}
}

func TestShardedSimLossDropsMessages(t *testing.T) {
	_, clean, _ := shardedFixture(t, 4, 0, 40, 2*eventsim.Second)
	_, lossy, _ := shardedFixture(t, 4, 0.2, 40, 2*eventsim.Second)
	if clean.MessagesDropped != 0 {
		t.Errorf("clean run dropped %d messages", clean.MessagesDropped)
	}
	if lossy.MessagesDropped == 0 {
		t.Error("lossy run dropped nothing")
	}
}

func TestShardedSimLookaheadViolationPanics(t *testing.T) {
	s := NewShardedSim(ShardedSimOptions{
		Latency:   func(a, b int) float64 { return 1 }, // < lookahead
		Shards:    2,
		Lookahead: 6,
		Seed:      1,
	})
	s.View(0).Attach(0, func(Addr, Message) {})
	s.View(1).Attach(1, func(Addr, Message) {})
	defer func() {
		if recover() == nil {
			t.Error("cross-shard send below lookahead did not panic")
		}
	}()
	s.View(0).Send(0, 1, 10, "x") // 0 and 1 are on different shards
}

func TestShardedSimSameShardFastPath(t *testing.T) {
	// Same-shard latency may be below the lookahead — only cross-shard
	// pairs are constrained.
	s := NewShardedSim(ShardedSimOptions{
		Latency:   func(a, b int) float64 { return 1 },
		Shards:    2,
		Lookahead: 6,
		Seed:      1,
	})
	got := -1
	s.View(2).Attach(2, func(from Addr, msg Message) { got = msg.(int) })
	s.View(0).Send(0, 2, 10, 7) // 0 and 2 share shard 0
	s.RunUntil(100)
	if got != 7 {
		t.Errorf("same-shard delivery got %v, want 7", got)
	}
}

func TestShardedSimAttachWrongShardPanics(t *testing.T) {
	s := NewShardedSim(ShardedSimOptions{
		Latency:   func(a, b int) float64 { return 10 },
		Shards:    4,
		Lookahead: 6,
		Seed:      1,
	})
	defer func() {
		if recover() == nil {
			t.Error("attaching to the wrong shard did not panic")
		}
	}()
	s.shards[0].Attach(1, func(Addr, Message) {})
}

func TestShardedSimDownEndpoint(t *testing.T) {
	s := NewShardedSim(ShardedSimOptions{
		Latency:   func(a, b int) float64 { return 10 },
		Shards:    2,
		Lookahead: 6,
		Seed:      1,
	})
	delivered := 0
	s.View(1).Attach(1, func(Addr, Message) { delivered++ })
	s.SetDown(1, true)
	s.View(0).Send(0, 1, 10, "x")
	s.RunUntil(100)
	if delivered != 0 {
		t.Error("down endpoint received a message")
	}
	if st := s.Stats(); st.MessagesDropped != 1 {
		t.Errorf("dropped = %d, want 1", st.MessagesDropped)
	}
	s.SetDown(1, false)
	s.View(0).Send(0, 1, 10, "y")
	s.RunUntil(200)
	if delivered != 1 {
		t.Error("recovered endpoint did not receive")
	}
}

func TestShardedSimPacketPairSerialization(t *testing.T) {
	// Two back-to-back sends on the same directed pair arrive separated
	// by the second's serialization delay — the Sim contract, preserved.
	s := NewShardedSim(ShardedSimOptions{
		Latency:    func(a, b int) float64 { return 10 },
		Bottleneck: func(a, b int) float64 { return 8 }, // kbps: 1000B = 1000ms
		Shards:     2,
		Lookahead:  6,
		Seed:       1,
	})
	var arrivals []eventsim.Time
	net := s.View(1)
	net.Attach(1, func(Addr, Message) { arrivals = append(arrivals, net.Now()) })
	s.View(0).Send(0, 1, 1000, "a")
	s.View(0).Send(0, 1, 1000, "b")
	s.RunUntil(5 * eventsim.Second)
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals, want 2", len(arrivals))
	}
	gap := arrivals[1] - arrivals[0]
	if gap != 1000 {
		t.Errorf("packet-pair dispersion %v, want 1000 (serialization at bottleneck)", gap)
	}
}
