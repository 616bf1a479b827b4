package obs

import (
	"fmt"
	"sort"

	"p2ppool/internal/eventsim"
)

// EventKind classifies a trace event.
type EventKind uint8

const (
	// KindSend: a message entered the transport.
	KindSend EventKind = iota
	// KindDeliver: a message reached its endpoint; Latency is the
	// one-way delay it experienced.
	KindDeliver
	// KindDrop: a message was destroyed; Cause says by what (loss rule,
	// partition, crash, down endpoint, missing handler).
	KindDrop
	// KindDelay: faultnet added jitter; Latency is the extra delay.
	KindDelay
	// KindHop: a DHT-routed message visited a node; Hop is the overlay
	// hop count so far.
	KindHop
	// KindCrash / KindRestart: node state transitions.
	KindCrash
	KindRestart
)

// String renders the kind for tables and CSVs.
func (k EventKind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindDeliver:
		return "deliver"
	case KindDrop:
		return "drop"
	case KindDelay:
		return "delay"
	case KindHop:
		return "hop"
	case KindCrash:
		return "crash"
	case KindRestart:
		return "restart"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Event is one hop-level trace record. From/To are transport addresses
// (host indices); To is -1 where it does not apply.
type Event struct {
	Time    eventsim.Time
	Kind    EventKind
	From    int
	To      int
	Size    int     // wire size in bytes, when known
	Hop     int     // overlay hop count (KindHop)
	Latency float64 // per-hop latency or injected delay, ms
	Cause   string  // drop cause / free-form detail
}

// String renders the event compactly for the -trace tail table.
func (e Event) String() string {
	s := fmt.Sprintf("%8.1f  %-7s  %d->%d", float64(e.Time), e.Kind, e.From, e.To)
	if e.Kind == KindHop {
		s += fmt.Sprintf("  hop=%d", e.Hop)
	}
	if e.Latency > 0 {
		s += fmt.Sprintf("  %.1fms", e.Latency)
	}
	if e.Cause != "" {
		s += "  " + e.Cause
	}
	return s
}

// Trace is a fixed-capacity ring buffer of hop-level events. Recording
// is O(1) and never allocates after the buffer fills; old events are
// overwritten, but cumulative tallies (totals per kind, per drop
// cause, latency moments) survive eviction, so Summary covers the
// whole run while Events covers the recent window. Nil-safe like the
// registry: a nil *Trace records nothing.
type Trace struct {
	buf   []Event
	next  int
	full  bool
	total uint64

	byKind  map[EventKind]uint64
	byCause map[string]uint64

	latCount uint64
	latSum   float64
	latMin   float64
	latMax   float64

	hopCount uint64
	hopSum   uint64
	hopMax   int
}

// NewTrace creates a trace ring holding up to capacity events.
func NewTrace(capacity int) *Trace {
	if capacity < 1 {
		capacity = 1
	}
	return &Trace{
		buf:     make([]Event, 0, capacity),
		byKind:  make(map[EventKind]uint64),
		byCause: make(map[string]uint64),
	}
}

// Record appends an event, evicting the oldest when full.
func (t *Trace) Record(ev Event) {
	if t == nil {
		return
	}
	t.total++
	t.byKind[ev.Kind]++
	switch ev.Kind {
	case KindDrop:
		t.byCause[ev.Cause]++
	case KindDeliver:
		if t.latCount == 0 || ev.Latency < t.latMin {
			t.latMin = ev.Latency
		}
		if t.latCount == 0 || ev.Latency > t.latMax {
			t.latMax = ev.Latency
		}
		t.latCount++
		t.latSum += ev.Latency
	case KindHop:
		t.hopCount++
		t.hopSum += uint64(ev.Hop)
		if ev.Hop > t.hopMax {
			t.hopMax = ev.Hop
		}
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
		return
	}
	t.buf[t.next] = ev
	t.next = (t.next + 1) % len(t.buf)
	t.full = true
}

// Total returns how many events were ever recorded (including evicted
// ones).
func (t *Trace) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Events returns the retained events, oldest first.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	if !t.full {
		return append([]Event(nil), t.buf...)
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Tail returns the newest n retained events, oldest first, and none
// for n <= 0.
func (t *Trace) Tail(n int) []Event {
	if n <= 0 {
		return nil
	}
	evs := t.Events()
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// KindCount is one row of the by-kind tally.
type KindCount struct {
	Kind  EventKind
	Count uint64
}

// CauseCount is one row of the drop-cause tally.
type CauseCount struct {
	Cause string
	Count uint64
}

// Summary are whole-run trace statistics (they survive ring eviction).
type Summary struct {
	Total    uint64
	ByKind   []KindCount  // sorted by kind
	ByCause  []CauseCount // drop causes, sorted by name
	LatCount uint64       // delivery events with a latency sample
	LatMin   float64
	LatMean  float64
	LatMax   float64
	HopCount uint64 // routed-hop events
	HopMean  float64
	HopMax   int
}

// Summary computes the whole-run statistics.
func (t *Trace) Summary() Summary {
	if t == nil {
		return Summary{}
	}
	s := Summary{
		Total:    t.total,
		LatCount: t.latCount,
		LatMin:   t.latMin,
		LatMax:   t.latMax,
		HopCount: t.hopCount,
		HopMax:   t.hopMax,
	}
	if t.latCount > 0 {
		s.LatMean = t.latSum / float64(t.latCount)
	}
	if t.hopCount > 0 {
		s.HopMean = float64(t.hopSum) / float64(t.hopCount)
	}
	for k, c := range t.byKind {
		s.ByKind = append(s.ByKind, KindCount{Kind: k, Count: c})
	}
	sort.Slice(s.ByKind, func(i, j int) bool { return s.ByKind[i].Kind < s.ByKind[j].Kind })
	for cause, c := range t.byCause {
		s.ByCause = append(s.ByCause, CauseCount{Cause: cause, Count: c})
	}
	sort.Slice(s.ByCause, func(i, j int) bool { return s.ByCause[i].Cause < s.ByCause[j].Cause })
	return s
}

// Health is the per-member payload the observability layer publishes
// through SOMO: the member's registry snapshot plus when its agent
// last reported. The SOMO root snapshot of Health records IS the
// system-health dashboard — the paper's in-band monitoring story.
// LastReport is a field of its own rather than a read of the
// somo.last_report_ms gauge in Metrics: a member without a registry
// publishes an empty snapshot, and the dashboard's status must read the
// same with and without instrumentation (the observer-effect check in
// internal/experiments runs the dashboard with no registry at all).
type Health struct {
	Host       int
	LastReport eventsim.Time
	Metrics    Snapshot
}
