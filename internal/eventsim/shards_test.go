package eventsim

import (
	"fmt"
	"testing"
)

// crossSend models the partitioning layer: events on one shard buffer
// messages for another; the flush callback schedules them on the target
// engine at arrival time >= the barrier.
type crossMsg struct {
	to      int
	arrive  Time
	payload int
}

func TestShardGroupLockstep(t *testing.T) {
	const (
		shards   = 4
		window   = Time(6)
		deadline = Time(1000)
	)
	// Each shard ticks every 10ms; every tick buffers a message to the
	// next shard with latency >= window (the lookahead contract).
	// Deliveries append to per-shard traces (engines on different shards
	// run concurrently) merged in shard order afterwards.
	runSafe := func(workers int) (string, uint64, Time) {
		g := NewShardGroup(shards, 42, workers)
		traces := make([][]string, shards)
		// One outbox per sending shard, flushed in shard order at the
		// barrier: shards run concurrently within a window.
		outbox := make([][]crossMsg, shards)
		for i := 0; i < shards; i++ {
			i := i
			e := g.Engine(i)
			var tick func()
			tick = func() {
				outbox[i] = append(outbox[i], crossMsg{
					to:      (i + 1) % shards,
					arrive:  e.Now() + window + Time(e.Rand().Intn(20)),
					payload: i,
				})
				e.Schedule(10, tick)
			}
			e.Schedule(Time(i), tick)
		}
		g.RunUntil(deadline, window, func(limit Time) {
			for from := range outbox {
				for _, m := range outbox[from] {
					if m.arrive < limit {
						t.Fatalf("cross-shard message arrives at %v before barrier %v", m.arrive, limit)
					}
					m := m
					g.Engine(m.to).At(m.arrive, func() {
						traces[m.to] = append(traces[m.to], fmt.Sprintf("%d<-%d@%v", m.to, m.payload, m.arrive))
					})
				}
				outbox[from] = outbox[from][:0]
			}
		})
		all := ""
		for _, tr := range traces {
			for _, s := range tr {
				all += s + "\n"
			}
		}
		return all, g.Processed(), g.Now()
	}
	t1, p1, now1 := runSafe(1)
	t8, p8, now8 := runSafe(8)
	if t1 != t8 {
		t.Error("delivery traces differ between workers=1 and workers=8")
	}
	if p1 != p8 {
		t.Errorf("processed counts differ: %d vs %d", p1, p8)
	}
	if now1 != deadline || now8 != deadline {
		t.Errorf("group clock = %v / %v, want %v", now1, now8, deadline)
	}
	if p1 == 0 {
		t.Error("no events processed")
	}
}

func TestShardGroupClockAdvancesWithoutEvents(t *testing.T) {
	g := NewShardGroup(2, 1, 1)
	n := g.RunUntil(100, 6, nil)
	if n != 0 {
		t.Errorf("processed %d events on empty shards", n)
	}
	if g.Now() != 100 {
		t.Errorf("group clock %v, want 100", g.Now())
	}
	for i := 0; i < g.Len(); i++ {
		if g.Engine(i).Now() != 100 {
			t.Errorf("shard %d clock %v, want 100", i, g.Engine(i).Now())
		}
	}
}

func TestShardGroupPartialWindow(t *testing.T) {
	// Deadline not a multiple of the window: the final window is clipped.
	g := NewShardGroup(1, 1, 1)
	fired := Time(-1)
	g.Engine(0).Schedule(9, func() { fired = g.Engine(0).Now() })
	g.RunUntil(10, 6, nil)
	if fired != 9 {
		t.Errorf("event fired at %v, want 9", fired)
	}
	if g.Now() != 10 {
		t.Errorf("group clock %v, want 10", g.Now())
	}
}

func TestShardGroupRunUntilResumable(t *testing.T) {
	g := NewShardGroup(2, 1, 2)
	var fires []Time
	g.Engine(0).Schedule(5, func() { fires = append(fires, 5) })
	g.Engine(0).Schedule(15, func() { fires = append(fires, 15) })
	g.RunUntil(10, 6, nil)
	if len(fires) != 1 {
		t.Fatalf("fires after first leg: %v", fires)
	}
	g.RunUntil(20, 6, nil)
	if len(fires) != 2 || fires[1] != 15 {
		t.Fatalf("fires after second leg: %v", fires)
	}
}

func TestShardGroupPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("zero shards", func() { NewShardGroup(0, 1, 1) })
	g := NewShardGroup(1, 1, 1)
	expectPanic("zero window", func() { g.RunUntil(10, 0, nil) })
	g.RunUntil(10, 6, nil)
	expectPanic("past deadline", func() { g.RunUntil(5, 6, nil) })
}
