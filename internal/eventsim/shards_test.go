package eventsim

import (
	"fmt"
	"slices"
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
	// run concurrently) merged in shard order afterwards. split forces
	// every window onto the concurrent path: this load is far too light
	// to be split by the rule.
	runSafe := func(workers int, split bool) (string, uint64, Time) {
		g := NewShardGroup(shards, 42, workers)
		if split {
			g.minSplit = 0
			defer func() {
				if g.splits == 0 {
					t.Error("forced split ran no window concurrently")
				}
			}()
		}
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
	t1, p1, now1 := runSafe(1, false)
	for _, split := range []bool{false, true} {
		t8, p8, now8 := runSafe(8, split)
		if t1 != t8 {
			t.Errorf("split=%v: delivery traces differ between workers=1 and workers=8", split)
		}
		if p1 != p8 {
			t.Errorf("split=%v: processed counts differ: %d vs %d", split, p1, p8)
		}
		if now1 != deadline || now8 != deadline {
			t.Errorf("split=%v: group clock = %v / %v, want %v", split, now1, now8, deadline)
		}
	}
	if p1 == 0 {
		t.Error("no events processed")
	}
}

// rampLoad drives a ShardGroup with a load whose events per window rise
// from a few to rate, across any split threshold, and fall back again.
// Each shard ticks at a period set by the current target rate (with a
// draw from its own stream), logs every fire, and sends a message to a
// random shard that arrives at least one window later. The flush log
// holds each window's per-shard event counts and every handoff in
// order.
func rampLoad(workers int, split bool, windows int, rate float64) ([][]fired, []flushed, *ShardGroup) {
	const window = Time(6)
	g := NewShardGroup(rampShards, 7, workers)
	if split {
		g.minSplit = 0
	}
	fires := make([][]fired, rampShards)
	outbox := make([][]crossMsg, rampShards)
	var flushes []flushed
	deadline := window * Time(windows)
	// Events per window across the group at time now: a triangle from
	// rate/64 up to rate at the middle window and back.
	target := func(now Time) float64 {
		x := float64(now / deadline)
		return rate * (1/64. + (1-1/64.)*(1-2*max(x-0.5, 0.5-x)))
	}
	for i := 0; i < rampShards; i++ {
		i, e := i, g.Engine(i)
		var tick func()
		tick = func() {
			fires[i] = append(fires[i], fired{at: e.Now(), from: -1})
			outbox[i] = append(outbox[i], crossMsg{
				to:      e.Rand().Intn(rampShards),
				arrive:  e.Now() + window + Time(e.Rand().Intn(12)),
				payload: len(fires[i]),
			})
			period := window * rampShards / Time(target(e.Now()))
			e.Schedule(period*Time(0.5+e.Rand().Float64()), tick)
		}
		e.Schedule(Time(i)/rampShards, tick)
	}
	g.RunUntil(deadline, window, func(limit Time) {
		flushes = append(flushes, flushed{counts: [rampShards]uint64(g.counts)})
		for from := range outbox {
			for _, m := range outbox[from] {
				m, from := m, from
				flushes = append(flushes, flushed{from: from, msg: m})
				g.Engine(m.to).At(m.arrive, func() {
					fires[m.to] = append(fires[m.to], fired{at: m.arrive, from: from, payload: m.payload})
				})
			}
			outbox[from] = outbox[from][:0]
		}
	})
	return fires, flushes, g
}

const rampShards = 8

// fired is one entry of an engine's fire log: a tick (from -1) or the
// delivery of a message.
type fired struct {
	at            Time
	from, payload int
}

// flushed is one entry of the flush log: a window's per-shard event
// counts, or a handoff.
type flushed struct {
	counts [rampShards]uint64
	from   int
	msg    crossMsg
}

// skipIfForced skips a test of the rule itself in a build with -tags
// forcesplit, where there is no rule: every window splits.
func skipIfForced(t *testing.T) {
	if minSplitEvents == 0 {
		t.Skip("built with -tags forcesplit")
	}
}

// TestShardGroupSplitMatchesSerial runs a load that ramps across the
// split threshold and back three ways — serially, under the rule, and
// with every window split — and requires every engine's fire log, every
// window's per-shard counts and the flush order to be identical. Under
// -race it is also the check that a split window's engines touch only
// their own state.
func TestShardGroupSplitMatchesSerial(t *testing.T) {
	skipIfForced(t)
	const windows = 40
	wantFires, wantFlushes, serial := rampLoad(1, false, windows, 4*float64(minSplitEvents))
	if serial.splits != 0 {
		t.Fatalf("one worker split %d windows", serial.splits)
	}
	for _, arm := range []struct {
		name  string
		split bool
	}{{"rule", false}, {"forced", true}} {
		fires, flushes, g := rampLoad(2, arm.split, windows, 4*float64(minSplitEvents))
		for i := range wantFires {
			if !slices.Equal(fires[i], wantFires[i]) {
				t.Errorf("%s: shard %d fired %d events, serial %d, or in another order", arm.name, i, len(fires[i]), len(wantFires[i]))
			}
		}
		if !slices.Equal(flushes, wantFlushes) {
			t.Errorf("%s: flush log differs from the serial run", arm.name)
		}
		// The rule splits the busy middle of the ramp and neither end;
		// forced, every window splits.
		switch {
		case arm.split && g.splits != windows:
			t.Errorf("forced: %d of %d windows split", g.splits, windows)
		case !arm.split && (g.splits == 0 || g.splits >= windows-2):
			t.Errorf("rule: %d of %d windows split, want some but not the ends", g.splits, windows)
		}
	}
}

// TestShardGroupSplitThreshold pins the rule at the two densities that
// matter: the benchmark's ring (~125 events per window over 8 shards)
// never splits, and the 30,000-host scale cell's (~5,000) splits every
// window after the first, which has no predecessor — at two workers, as
// the benchmark runs, and at eight: the threshold is a window's total.
func TestShardGroupSplitThreshold(t *testing.T) {
	skipIfForced(t)
	for _, c := range []struct {
		perWindow float64
		workers   int
		want      func(windows uint64) uint64
	}{
		{125, 2, func(uint64) uint64 { return 0 }},
		{125, 8, func(uint64) uint64 { return 0 }},
		{5000, 2, func(w uint64) uint64 { return w - 1 }},
		{5000, 8, func(w uint64) uint64 { return w - 1 }},
	} {
		const (
			shards  = 8
			window  = Time(6)
			windows = 50
		)
		g := NewShardGroup(shards, 1, c.workers)
		period := window * shards / Time(c.perWindow)
		for i := 0; i < shards; i++ {
			e := g.Engine(i)
			var tick func()
			tick = func() { e.Schedule(period, tick) }
			e.Schedule(Time(i)*period/shards, tick)
		}
		n := g.RunUntil(window*windows, window, nil)
		if got := float64(n) / windows; got < 0.9*c.perWindow || got > 1.1*c.perWindow {
			t.Fatalf("load ran %.0f events per window, want ~%v", got, c.perWindow)
		}
		if want := c.want(windows); g.splits != want {
			t.Errorf("%v events per window, %d workers: %d of %d windows split, want %d", c.perWindow, c.workers, g.splits, windows, want)
		}
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
