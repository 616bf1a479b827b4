// Package eventsim is a deterministic discrete-event engine: a virtual
// clock and an ordered event queue. All protocol simulations (DHT
// heartbeats, SOMO gather flows, coordinate updates) run on top of it,
// which makes every experiment reproducible from a seed and lets a
// simulated 5-minute reporting interval elapse in microseconds of wall
// time.
//
// Events scheduled for the same instant fire in scheduling order
// (FIFO), which keeps runs deterministic regardless of map iteration or
// goroutine interleaving — the engine is strictly single-threaded.
//
// The engine owns its queue (queue.go): a 4-ary min-heap of event
// values with the (at, seq) comparison inlined, not container/heap (an
// allocation per Push and Pop to box the element) and not a generic
// heap ordered through a less function (an indirect call copying two
// events per comparison; DESIGN.md §5 has the measurements). The steady-state schedule/fire
// path allocates nothing. Events popped at the same timestamp are
// drained as one batch, so a burst of simultaneous deliveries costs one
// heap interaction per event only while the batch is being collected,
// and none while it is being fired.
package eventsim

import (
	"fmt"
	"math/rand"
)

// Time is virtual time in milliseconds since the start of the run.
type Time float64

// Millisecond is the base unit of virtual time.
const Millisecond Time = 1

// Second is 1000 virtual milliseconds.
const Second Time = 1000

// Minute is 60 virtual seconds.
const Minute Time = 60 * Second

// Timer is a handle to a scheduled event; it can be stopped before it
// fires and rescheduled with Reset, so retry/backoff loops reuse one
// timer instead of leaking a stopped one per attempt.
type Timer struct {
	engine *Engine
	fn     func()
	// gen is bumped by Stop and Reset; queued events carry the gen they
	// were scheduled with, so a stale event is skipped at pop time.
	gen     uint64
	pending bool // an event with the current gen is queued
	fired   bool // the most recent scheduling has run
}

// Stop cancels the timer if it has not fired yet. It reports whether
// the call prevented the event from firing.
func (t *Timer) Stop() bool {
	if !t.pending {
		return false
	}
	t.pending = false
	t.gen++ // orphan the queued event
	return true
}

// Reset schedules the timer's callback to run after d (>= 0) of virtual
// time, regardless of whether the timer is pending, stopped, or has
// already fired; a pending event is cancelled first. It reports whether
// the reset cancelled a pending event.
func (t *Timer) Reset(d Time) bool {
	if d < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", d))
	}
	was := t.pending
	t.gen++
	t.pending = true
	t.fired = false
	t.engine.push(t, t.engine.now+d)
	return was
}

// Fired reports whether the timer's most recent scheduling has run.
func (t *Timer) Fired() bool { return t.fired }

// Runner is a pre-allocated (typically pooled) event callback. CallAt
// and CallAfter schedule a Runner without allocating a Timer or a
// closure — the zero-garbage path for high-volume one-shot events such
// as message deliveries. Storing a pointer-typed Runner in an event
// does not allocate.
type Runner interface {
	// RunEvent fires the event. It runs on the engine's event loop.
	RunEvent()
}

type event struct {
	at    Time
	seq   uint64 // tiebreaker: FIFO among same-time events
	timer *Timer // nil for Runner events
	gen   uint64 // the timer generation this event belongs to
	run   Runner // non-nil for Runner events
}

// stale reports whether the event was orphaned by a Stop or Reset.
// Runner events cannot be cancelled and are never stale.
func (ev *event) stale() bool { return ev.timer != nil && ev.gen != ev.timer.gen }

// Engine is the simulation core. Create with New; not safe for
// concurrent use (by design — determinism).
type Engine struct {
	now   Time
	seq   uint64
	queue queue
	// batch buffers same-timestamp events drained from the queue in one
	// go; batchPos is the next batch entry to fire. Events scheduled
	// while a batch drains carry higher seqs than everything in the
	// batch, so consuming the batch before returning to the heap
	// preserves the global (at, seq) order exactly.
	batch     []event
	batchPos  int
	rng       *rand.Rand
	processed uint64

	// Trace recording (see StartTrace); nil/false costs nothing on the
	// hot path — Mark returns immediately.
	tracing bool
	trace   []TraceEntry
}

// New returns an engine whose randomness is seeded with seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events still queued (including stopped
// timers that have not been drained yet).
func (e *Engine) Pending() int {
	return e.queue.Len() + len(e.batch) - e.batchPos
}

// Schedule runs fn after delay (>= 0) of virtual time and returns a
// stoppable handle. Scheduling with a negative delay panics: an event
// in the past would silently reorder causality.
func (e *Engine) Schedule(delay Time, fn func()) *Timer {
	if delay < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t (>= Now) and returns a
// stoppable handle.
func (e *Engine) At(t Time, fn func()) *Timer {
	if t < e.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", t, e.now))
	}
	tm := &Timer{engine: e, fn: fn, pending: true}
	e.push(tm, t)
	return tm
}

// CallAt schedules r.RunEvent at absolute virtual time t (>= Now). The
// event cannot be cancelled and no handle is allocated — this is the
// zero-garbage path for pooled one-shot events (message deliveries).
func (e *Engine) CallAt(t Time, r Runner) {
	if t < e.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", t, e.now))
	}
	e.seq++
	e.queue.Push(event{at: t, seq: e.seq, run: r})
}

// CallAfter schedules r.RunEvent after delay (>= 0) of virtual time;
// see CallAt.
func (e *Engine) CallAfter(delay Time, r Runner) {
	if delay < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", delay))
	}
	e.CallAt(e.now+delay, r)
}

// push enqueues an event for tm's current generation at absolute time at.
func (e *Engine) push(tm *Timer, at Time) {
	e.seq++
	e.queue.Push(event{at: at, seq: e.seq, timer: tm, gen: tm.gen})
}

// peekReady drains stale events from the front of the batch and the
// queue, and reports the timestamp of the next live event (ok=false if
// none remain).
func (e *Engine) peekReady() (Time, bool) {
	for {
		if e.batchPos < len(e.batch) {
			ev := &e.batch[e.batchPos]
			if ev.stale() {
				e.batchPos++
				continue
			}
			return ev.at, true
		}
		if len(e.batch) > 0 {
			e.batch = e.batch[:0]
			e.batchPos = 0
		}
		if e.queue.Len() == 0 {
			return 0, false
		}
		if ev := e.queue.Peek(); !ev.stale() {
			return ev.at, true
		}
		e.queue.Pop()
	}
}

// popReady removes and returns the next live event. peekReady must have
// reported ok just before. When popping from the heap, every further
// event sharing the same timestamp is drained into the batch buffer in
// one pass, so firing a burst of simultaneous events does not bounce
// through the heap once per event.
func (e *Engine) popReady() event {
	if e.batchPos < len(e.batch) {
		ev := e.batch[e.batchPos]
		e.batchPos++
		return ev
	}
	ev := e.queue.Pop()
	for e.queue.Len() > 0 && e.queue.Peek().at == ev.at {
		e.batch = append(e.batch, e.queue.Pop())
	}
	e.batchPos = 0
	return ev
}

// fire executes one live event.
func (e *Engine) fire(ev event) {
	e.now = ev.at
	e.processed++
	if ev.timer != nil {
		ev.timer.fired = true
		ev.timer.pending = false
		ev.timer.fn()
		return
	}
	ev.run.RunEvent()
}

// Step executes the single earliest pending event. It reports false if
// the queue is empty. Events orphaned by Stop or Reset are skipped (and
// drained).
func (e *Engine) Step() bool {
	if _, ok := e.peekReady(); !ok {
		return false
	}
	e.fire(e.popReady())
	return true
}

// Run executes events until the queue is empty or maxEvents have been
// processed (0 means no limit). It returns the number of events run.
// The event limit is a safety valve for protocols with periodic timers,
// which never drain on their own.
func (e *Engine) Run(maxEvents uint64) uint64 {
	var n uint64
	for {
		if maxEvents > 0 && n >= maxEvents {
			return n
		}
		if !e.Step() {
			return n
		}
		n++
	}
}

// RunUntil executes events with timestamps <= deadline and then
// advances the clock to exactly deadline. Events scheduled later stay
// queued. It returns the number of events run.
func (e *Engine) RunUntil(deadline Time) uint64 {
	var n uint64
	for {
		at, ok := e.peekReady()
		if !ok || at > deadline {
			break
		}
		e.fire(e.popReady())
		n++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return n
}
