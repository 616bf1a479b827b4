package eventsim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Errorf("final time = %v, want 30", e.Now())
	}
	if e.Processed() != 3 {
		t.Errorf("processed = %d", e.Processed())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	var times []Time
	e.Schedule(10, func() {
		times = append(times, e.Now())
		e.Schedule(5, func() { times = append(times, e.Now()) })
	})
	e.Run(0)
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v", times)
	}
}

func TestTimerStop(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.Schedule(10, func() { fired = true })
	if !tm.Stop() {
		t.Error("first Stop should succeed")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	e.Run(0)
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestStopAfterFire(t *testing.T) {
	e := New(1)
	tm := e.Schedule(1, func() {})
	e.Run(0)
	if tm.Stop() {
		t.Error("Stop after firing should report false")
	}
}

func TestTimerResetWhilePending(t *testing.T) {
	e := New(1)
	var at []Time
	tm := e.Schedule(10, func() { at = append(at, e.Now()) })
	if !tm.Reset(25) {
		t.Error("Reset of a pending timer should report true")
	}
	e.Run(0)
	if len(at) != 1 || at[0] != 25 {
		t.Fatalf("fired at %v, want exactly once at 25", at)
	}
}

func TestTimerResetAfterStop(t *testing.T) {
	e := New(1)
	fired := 0
	tm := e.Schedule(10, func() { fired++ })
	if !tm.Stop() {
		t.Fatal("Stop should succeed")
	}
	if tm.Reset(5) {
		t.Error("Reset of a stopped timer should report false")
	}
	e.Run(0)
	if fired != 1 {
		t.Fatalf("fired %d times, want 1 (the reset schedule only)", fired)
	}
	if e.Now() != 5 {
		t.Errorf("fired at %v, want 5", e.Now())
	}
}

func TestTimerResetAfterFire(t *testing.T) {
	e := New(1)
	fired := 0
	tm := e.Schedule(10, func() { fired++ })
	e.Run(0)
	if fired != 1 {
		t.Fatal("timer should have fired once")
	}
	if tm.Reset(7) {
		t.Error("Reset of a fired timer should report false")
	}
	e.Run(0)
	if fired != 2 {
		t.Fatalf("fired %d times, want 2", fired)
	}
	if e.Now() != 17 {
		t.Errorf("second firing at %v, want 17", e.Now())
	}
	// A reused timer can still be stopped.
	tm.Reset(3)
	if !tm.Stop() {
		t.Error("Stop after Reset should succeed")
	}
	e.Run(0)
	if fired != 2 {
		t.Error("stopped reset fired anyway")
	}
}

func TestTimerResetFromOwnCallback(t *testing.T) {
	// A periodic loop implemented by resetting the timer from inside
	// its own callback — the retry/backoff pattern Reset exists for.
	e := New(1)
	var tm *Timer
	fired := 0
	tm = e.Schedule(1, func() {
		fired++
		if fired < 5 {
			tm.Reset(2)
		}
	})
	e.Run(0)
	if fired != 5 {
		t.Fatalf("fired %d times, want 5", fired)
	}
	if e.Now() != 9 {
		t.Errorf("final time %v, want 9 (1 + 4*2)", e.Now())
	}
}

func TestTimerResetNegativePanics(t *testing.T) {
	e := New(1)
	tm := e.Schedule(10, func() {})
	defer func() {
		if recover() == nil {
			t.Error("negative Reset should panic")
		}
	}()
	tm.Reset(-1)
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	New(1).Schedule(-1, func() {})
}

func TestAtBeforeNowPanics(t *testing.T) {
	e := New(1)
	e.Schedule(10, func() {})
	e.Run(0)
	defer func() {
		if recover() == nil {
			t.Error("At before now should panic")
		}
	}()
	e.At(5, func() {})
}

func TestRunMaxEvents(t *testing.T) {
	e := New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		e.Schedule(1, tick) // immortal periodic timer
	}
	e.Schedule(1, tick)
	n := e.Run(100)
	if n != 100 || count != 100 {
		t.Fatalf("ran %d events, counted %d, want 100", n, count)
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	var fired []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	n := e.RunUntil(12)
	if n != 2 {
		t.Errorf("ran %d events, want 2", n)
	}
	if e.Now() != 12 {
		t.Errorf("now = %v, want 12", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d, want 2", e.Pending())
	}
	// Continue to the end.
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Errorf("fired = %v", fired)
	}
	if e.Now() != 100 {
		t.Errorf("now should advance to the deadline even with empty queue")
	}
}

func TestRunUntilSkipsStopped(t *testing.T) {
	e := New(1)
	tm := e.Schedule(5, func() { t.Error("stopped event ran") })
	tm.Stop()
	if n := e.RunUntil(10); n != 0 {
		t.Errorf("ran %d events, want 0", n)
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 10; i++ {
		if a.Rand().Uint64() != b.Rand().Uint64() {
			t.Fatal("same-seed engines diverge")
		}
	}
}

// Property: however events are scheduled, they execute in nondecreasing
// time order.
func TestMonotoneExecutionProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New(1)
		var seen []Time
		for _, d := range delays {
			e.Schedule(Time(d), func() { seen = append(seen, e.Now()) })
		}
		e.Run(0)
		return sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: interleaving nested scheduling with random delays still
// never executes an event before the clock reaches it.
func TestCausalityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	e := New(2)
	violations := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		if depth > 3 {
			return
		}
		at := e.Now()
		e.Schedule(Time(r.Intn(50)), func() {
			if e.Now() < at {
				violations++
			}
			spawn(depth + 1)
		})
	}
	for i := 0; i < 20; i++ {
		spawn(0)
	}
	e.Run(0)
	if violations != 0 {
		t.Errorf("%d causality violations", violations)
	}
}

func TestPendingCount(t *testing.T) {
	e := New(1)
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if e.Pending() != 2 {
		t.Errorf("pending = %d", e.Pending())
	}
	e.Step()
	if e.Pending() != 1 {
		t.Errorf("pending = %d after step", e.Pending())
	}
}
