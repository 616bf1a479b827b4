package main

import (
	"time"

	"p2ppool/internal/dht"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/ids"
	"p2ppool/internal/transport"
)

// The tracer lives entirely in this package: every span is recorded by
// benchmark code around a call into a layer's exported surface, never
// from inside the layer. A nil *tracer is the untraced run — every
// method is then a no-op and no decorator or sentinel is installed, so
// end-to-end metrics are measured with nothing in the way.

// key names one (layer, op) accumulator.
type key int

const (
	kHarness key = iota // the benchmark's own driver code (root span)
	kTopologyBuild
	kNetmodelBuild
	kCoordsSolve
	kCoreBuild
	kBandwidthEstimate
	kEventsimRun
	kDHTBuild
	kDHTHandler
	kDHTTimer
	kSomoSetup
	kSomoHandler
	kSomoTimer
	kSomoQuery
	kCoordsSetup
	kCoordsRefine
	kBandwidthSetup
	kBandwidthProbe
	kBandwidthTimer
	kSchedSubmit
	kSchedTick
	kSchedEnd
	kSchedNodeFailed
	kCorePlan
	kAlmAMCast
	kAlmHelpers
	kAlmAdjust
	kAlmRepair
	kDataplaneStart
	kDataplaneHandler
	kDataplaneTimer
	kDataplaneFinalize
	kInvariantSweep
	nKeys
)

// keyName is the per-layer metric each accumulator is reported as
// ("<layer>.<op>_s"); the layer is the part before the dot.
var keyName = [nKeys]string{
	kHarness:           "run.harness",
	kTopologyBuild:     "topology.build",
	kNetmodelBuild:     "netmodel.build",
	kCoordsSolve:       "coords.solve",
	kCoreBuild:         "core.build",
	kBandwidthEstimate: "bandwidth.estimate",
	kEventsimRun:       "eventsim.self",
	kDHTBuild:          "dht.build",
	kDHTHandler:        "dht.handler",
	kDHTTimer:          "dht.timer",
	kSomoSetup:         "somo.setup",
	kSomoHandler:       "somo.handler",
	kSomoTimer:         "somo.timer",
	kSomoQuery:         "somo.query",
	kCoordsSetup:       "coords.setup",
	kCoordsRefine:      "coords.refine",
	kBandwidthSetup:    "bandwidth.setup",
	kBandwidthProbe:    "bandwidth.probe",
	kBandwidthTimer:    "bandwidth.timer",
	kSchedSubmit:       "sched.submit",
	kSchedTick:         "sched.tick",
	kSchedEnd:          "sched.end",
	kSchedNodeFailed:   "sched.nodefailed",
	kCorePlan:          "core.plan",
	kAlmAMCast:         "alm.amcast",
	kAlmHelpers:        "alm.helpers",
	kAlmAdjust:         "alm.adjust",
	kAlmRepair:         "alm.repair",
	kDataplaneStart:    "dataplane.start",
	kDataplaneHandler:  "dataplane.handler",
	kDataplaneTimer:    "dataplane.timer",
	kDataplaneFinalize: "dataplane.finalize",
	kInvariantSweep:    "invariant.sweep",
}

// timerKey is the accumulator a timer scheduled from inside a span of
// key k fires under: a timer belongs to the layer that armed it. Keys
// absent from the map (bench glue, the ring's own handlers) fall back
// to the decorator's layer.
var timerKey = map[key]key{
	kSomoSetup: kSomoTimer, kSomoHandler: kSomoTimer, kSomoTimer: kSomoTimer, kSomoQuery: kSomoTimer,
	kBandwidthSetup: kBandwidthTimer, kBandwidthProbe: kBandwidthTimer, kBandwidthTimer: kBandwidthTimer,
}

// accum folds every span of one key: how many, their summed duration,
// the part of that not covered by child spans, and the longest one.
type accum struct {
	Count uint64
	Total time.Duration
	Self  time.Duration
	Max   time.Duration
}

type frame struct {
	k     key
	start time.Time
	child time.Duration // summed duration of direct children so far
}

// tracer is one goroutine's span stack and accumulators. The sharded
// ring gives each shard its own (shards advance concurrently) and merges
// them when the run ends.
type tracer struct {
	stack []frame
	acc   [nKeys]accum
	// rootTotal sums the spans that ended with nothing beneath them —
	// for a shard tracer, all callback time on that shard.
	rootTotal time.Duration
}

func newTracer() *tracer { return &tracer{stack: make([]frame, 0, 16)} }

func (t *tracer) begin(k key) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, frame{k: k, start: time.Now()})
}

// end closes the innermost span. Self time is the span's duration minus
// the part its children covered; the duration is then charged to the
// parent as child time.
func (t *tracer) end() {
	if t == nil {
		return
	}
	t.endAt(time.Now())
}

func (t *tracer) endAt(now time.Time) {
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now.Sub(f.start)
	a := &t.acc[f.k]
	a.Count++
	a.Total += d
	a.Self += d - f.child
	if d > a.Max {
		a.Max = d
	}
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	} else {
		t.rootTotal += d
	}
}

// current returns the innermost open span's key.
func (t *tracer) current() (key, bool) {
	if t == nil || len(t.stack) == 0 {
		return 0, false
	}
	return t.stack[len(t.stack)-1].k, true
}

// span times fn as one span of key k.
func (t *tracer) span(k key, fn func()) {
	t.begin(k)
	fn()
	t.end()
}

// merge adds another tracer's accumulators (a shard's) into t.
func (t *tracer) merge(o *tracer) {
	for k := range t.acc {
		a, b := &t.acc[k], o.acc[k]
		a.Count += b.Count
		a.Total += b.Total
		a.Self += b.Self
		if b.Max > a.Max {
			a.Max = b.Max
		}
	}
}

// lifeSpan is one step of a session's lifecycle, kept individually (not
// folded): every span of a session shares its ID, and every step names
// the session's root span as parent. Virtual times are deterministic;
// WallNS is the measured duration of the call when the step is one.
type lifeSpan struct {
	ID      int     `json:"id"`
	Span    int     `json:"span"`
	Parent  int     `json:"parent"` // -1 for the session's root span
	Name    string  `json:"name"`
	VStart  float64 `json:"v_start_ms"`
	VEnd    float64 `json:"v_end_ms"`
	WallNS  int64   `json:"wall_ns,omitempty"`
	Outcome string  `json:"outcome,omitempty"`
}

// lifecycle records per-session spans; nil when untraced.
type lifecycle struct {
	spans []lifeSpan
	root  map[int]int // session ID -> index of its root span
}

func newLifecycle() *lifecycle { return &lifecycle{spans: []lifeSpan{}, root: make(map[int]int)} }

// open starts session id's root span at virtual time at.
func (l *lifecycle) open(id int, at eventsim.Time) {
	if l == nil {
		return
	}
	l.root[id] = len(l.spans)
	l.spans = append(l.spans, lifeSpan{ID: id, Span: len(l.spans), Parent: -1, Name: "session", VStart: float64(at), VEnd: float64(at)})
}

// step appends a child span under session id's root and stretches the
// root to cover it. Unknown sessions (never opened) are ignored.
func (l *lifecycle) step(id int, name string, from, to eventsim.Time, wall time.Duration, outcome string) {
	if l == nil {
		return
	}
	r, ok := l.root[id]
	if !ok {
		return
	}
	l.spans = append(l.spans, lifeSpan{ID: id, Span: len(l.spans), Parent: r, Name: name,
		VStart: float64(from), VEnd: float64(to), WallNS: int64(wall), Outcome: outcome})
	if float64(to) > l.spans[r].VEnd {
		l.spans[r].VEnd = float64(to)
	}
}

// timedNet decorates a transport.Network so that every handler attached
// and every timer armed through it runs inside a span. It adds no
// events and draws no randomness, so a traced run is event-identical to
// an untraced one. One instance per layer (and per shard).
type timedNet struct {
	transport.Network
	tr      *tracer
	handler key
	timer   key
}

// timed wraps net for tracer tr; with no tracer it returns net itself.
func timed(net transport.Network, tr *tracer, handler, timer key) transport.Network {
	if tr == nil {
		return net
	}
	return &timedNet{Network: net, tr: tr, handler: handler, timer: timer}
}

func (n *timedNet) Attach(a transport.Addr, h transport.Handler) {
	n.Network.Attach(a, func(from transport.Addr, msg transport.Message) {
		n.tr.begin(n.handler)
		h(from, msg)
		n.tr.end()
	})
}

func (n *timedNet) After(d eventsim.Time, fn func()) transport.CancelFunc {
	k := n.timer
	if cur, ok := n.tr.current(); ok {
		if tk, ok := timerKey[cur]; ok {
			k = tk
		}
	}
	return n.Network.After(d, func() {
		n.tr.begin(k)
		fn()
		n.tr.end()
	})
}

// bracketHandlers registers a pair of sentinels around whatever register
// adds to node's app handler list (and, when routed is set, its routed
// handler list), so the time between them is the bracketed subsystem's.
// dht.Node calls its handler lists in registration order; the sentinels
// do nothing else.
func bracketHandlers(node *dht.Node, tr *tracer, setup, handler key, routed bool, register func()) {
	if tr == nil {
		register()
		return
	}
	if routed {
		node.OnRouted(func(ids.ID, dht.Entry, int, interface{}) { tr.begin(handler) })
	}
	node.OnApp(func(dht.Entry, interface{}) { tr.begin(handler) })
	tr.span(setup, register)
	if routed {
		node.OnRouted(func(ids.ID, dht.Entry, int, interface{}) { tr.end() })
	}
	node.OnApp(func(dht.Entry, interface{}) { tr.end() })
}

// gossipSentinel opens or closes a span from a dht.Gossip slot; it
// carries no payload.
type gossipSentinel struct {
	tr   *tracer
	k    key
	open bool
}

func (g gossipSentinel) mark() {
	if g.open {
		g.tr.begin(g.k)
	} else {
		g.tr.end()
	}
}

func (g gossipSentinel) HeartbeatPayload(dht.Entry) interface{} { g.mark(); return nil }

func (g gossipSentinel) OnHeartbeat(dht.Entry, float64, interface{}) { g.mark() }

// bracketGossip is bracketHandlers for the heartbeat-piggyback list.
func bracketGossip(node *dht.Node, tr *tracer, setup, k key, register func()) {
	if tr == nil {
		register()
		return
	}
	node.RegisterGossip(gossipSentinel{tr: tr, k: k, open: true})
	tr.span(setup, register)
	node.RegisterGossip(gossipSentinel{tr: tr, k: k})
}
