// Package faultnet is a composable fault-injection layer over a
// transport.Network. It interposes on Send and on message delivery to
// inject the failure modes a wide-area deployment actually sees —
// per-link and per-node message loss, extra delay jitter, node
// crash/restart, and bidirectional network partitions between host
// groups — while leaving the protocol code underneath completely
// unaware.
//
// Everything is deterministic: fault decisions draw from the layer's
// own seeded random stream (not the wrapped network's), faults can be
// scripted on the virtual clock, and every injected fault is counted.
// With no rules configured the layer is a pure pass-through — it adds
// no events and draws no randomness, so a wrapped run is
// event-identical to an unwrapped one.
package faultnet

import (
	"fmt"
	"math/rand"
	"sync"

	"p2ppool/internal/eventsim"
	"p2ppool/internal/obs"
	"p2ppool/internal/transport"
)

// Counters is the per-fault-type accounting. All counts are cumulative
// over the network's lifetime.
type Counters struct {
	// LinkDrops counts messages dropped by a per-link loss rule.
	LinkDrops uint64
	// NodeDrops counts messages dropped by a per-node loss rule.
	NodeDrops uint64
	// PartitionDrops counts messages dropped for crossing an active
	// partition boundary.
	PartitionDrops uint64
	// CrashDrops counts messages dropped because an endpoint was
	// crashed — at send time or, for in-flight messages, at delivery.
	CrashDrops uint64
	// Delayed counts messages given extra jitter.
	Delayed uint64
	// Crashes and Restarts count node state transitions.
	Crashes  uint64
	Restarts uint64
}

// Options configures a fault network.
type Options struct {
	// Seed drives loss and jitter decisions. The stream is independent
	// of the wrapped network's randomness, so enabling faults does not
	// perturb protocol-level random draws.
	Seed int64
}

// Net wraps a transport.Network and injects faults. Like the simulated
// transport it wraps, it is single-threaded: drive it from the event
// loop only.
type Net struct {
	inner transport.Network
	rng   *rand.Rand

	// handlers and crashed are indexed by address, like the transport's
	// own tables; nCrashed counts the true entries of crashed.
	handlers []transport.Handler
	crashed  []bool
	nCrashed int
	// The rule maps are empty unless a fault is configured, and a lookup
	// in an empty map returns before hashing.
	nodeLoss map[transport.Addr]float64
	linkLoss map[[2]transport.Addr]float64
	// groupOf assigns each partitioned address its group; messages
	// between different groups drop while the partition is active.
	groupOf map[transport.Addr]int
	jitter  eventsim.Time

	onCrash   []func(transport.Addr)
	onRestart []func(transport.Addr)

	ctr Counters

	// Observability handles (nil when uninstrumented; recording draws
	// no randomness and schedules no events, so fault decisions — and
	// therefore the run — are identical either way).
	trace   *obs.Trace
	hJitter *obs.Histogram
}

// New wraps inner in a fault-injection layer. Endpoints must Attach
// through the returned Net for crash faults to drop in-flight messages.
func New(inner transport.Network, opt Options) *Net {
	return &Net{
		inner:    inner,
		rng:      rand.New(rand.NewSource(opt.Seed)),
		nodeLoss: make(map[transport.Addr]float64),
		linkLoss: make(map[[2]transport.Addr]float64),
		groupOf:  make(map[transport.Addr]int),
	}
}

// Counters returns a copy of the fault accounting.
func (f *Net) Counters() Counters { return f.ctr }

// Instrument wires the fault layer to an observability registry and
// trace: per-cause drop counters, jitter histogram, crash/restart
// transitions. Either argument may be nil; instrumentation never
// changes fault decisions (zero observer effect).
func (f *Net) Instrument(reg *obs.Registry, trace *obs.Trace) {
	f.trace = trace
	reg.Counter("faultnet.link_drops", func() uint64 { return f.ctr.LinkDrops })
	reg.Counter("faultnet.node_drops", func() uint64 { return f.ctr.NodeDrops })
	reg.Counter("faultnet.partition_drops", func() uint64 { return f.ctr.PartitionDrops })
	reg.Counter("faultnet.crash_drops", func() uint64 { return f.ctr.CrashDrops })
	reg.Counter("faultnet.delayed", func() uint64 { return f.ctr.Delayed })
	reg.Counter("faultnet.crashes", func() uint64 { return f.ctr.Crashes })
	reg.Counter("faultnet.restarts", func() uint64 { return f.ctr.Restarts })
	f.hJitter = reg.Histogram("faultnet.jitter_ms", nil)
}

// drop counts an injected drop in *count and records it in the trace.
func (f *Net) drop(count *uint64, from, to transport.Addr, sizeBytes int, cause string) {
	*count++
	f.trace.Record(obs.Event{Time: f.inner.Now(), Kind: obs.KindDrop, From: int(from), To: int(to), Size: sizeBytes, Cause: cause})
}

// --- fault configuration ---

// SetLinkLoss drops messages sent from 'from' to 'to' with probability
// p (directed; set both directions for a symmetric lossy link). p <= 0
// removes the rule.
func (f *Net) SetLinkLoss(from, to transport.Addr, p float64) {
	if p <= 0 {
		delete(f.linkLoss, [2]transport.Addr{from, to})
		return
	}
	f.linkLoss[[2]transport.Addr{from, to}] = p
}

// SetNodeLoss drops every message sent or received by a with
// probability p. p <= 0 removes the rule.
func (f *Net) SetNodeLoss(a transport.Addr, p float64) {
	if p <= 0 {
		delete(f.nodeLoss, a)
		return
	}
	f.nodeLoss[a] = p
}

// SetJitter adds a uniform extra delay in [0, max) to every delivered
// message. 0 disables jitter.
func (f *Net) SetJitter(max eventsim.Time) { f.jitter = max }

// Partition splits the listed address groups from each other: a
// message whose endpoints lie in different groups is dropped, in both
// directions, until Heal. Addresses not listed in any group keep full
// connectivity to everyone. Calling Partition replaces any previous
// partition.
func (f *Net) Partition(groups ...[]transport.Addr) {
	f.groupOf = make(map[transport.Addr]int)
	for g, addrs := range groups {
		for _, a := range addrs {
			f.groupOf[a] = g + 1
		}
	}
}

// Heal removes the active partition.
func (f *Net) Heal() {
	f.groupOf = make(map[transport.Addr]int)
}

// Partitioned reports whether an active partition separates a and b.
func (f *Net) Partitioned(a, b transport.Addr) bool {
	ga, gb := f.groupOf[a], f.groupOf[b]
	return ga != 0 && gb != 0 && ga != gb
}

// --- crash / restart ---

// mustAddr panics, naming the call and the address, on a negative
// address (the tables are indexed by address).
func mustAddr(op string, a transport.Addr) {
	if a < 0 {
		panic(fmt.Sprintf("faultnet: %s(%d): negative address", op, a))
	}
}

// grow extends t with zero values until index i is valid.
func grow[T any](t []T, i int) []T {
	if i < len(t) {
		return t
	}
	return append(t, make([]T, i+1-len(t))...)
}

// Crash marks a as crashed: it neither sends nor receives (in-flight
// messages to it are dropped at delivery) until Restart. Registered
// OnCrash hooks run synchronously. Crashing a crashed node is a no-op;
// a negative address panics.
func (f *Net) Crash(a transport.Addr) {
	mustAddr("Crash", a)
	if f.Crashed(a) {
		return
	}
	f.crashed = grow(f.crashed, int(a))
	f.crashed[a] = true
	f.nCrashed++
	f.ctr.Crashes++
	f.trace.Record(obs.Event{Time: f.inner.Now(), Kind: obs.KindCrash, From: int(a), To: -1})
	for _, fn := range f.onCrash {
		fn(a)
	}
}

// Restart clears a's crashed state; OnRestart hooks run synchronously
// (they typically rebuild the protocol stack and rejoin). Restarting a
// live node is a no-op.
func (f *Net) Restart(a transport.Addr) {
	if !f.Crashed(a) {
		return
	}
	f.crashed[a] = false
	f.nCrashed--
	f.ctr.Restarts++
	f.trace.Record(obs.Event{Time: f.inner.Now(), Kind: obs.KindRestart, From: int(a), To: -1})
	for _, fn := range f.onRestart {
		fn(a)
	}
}

// Crashed reports whether a is currently crashed.
func (f *Net) Crashed(a transport.Addr) bool {
	return uint(a) < uint(len(f.crashed)) && f.crashed[a]
}

// CrashedAddrs returns the currently crashed addresses in ascending
// order (deterministic reporting).
func (f *Net) CrashedAddrs() []transport.Addr {
	out := make([]transport.Addr, 0, f.nCrashed)
	for a := 0; len(out) < f.nCrashed; a++ {
		if f.crashed[a] {
			out = append(out, transport.Addr(a))
		}
	}
	return out
}

// OnCrash registers a hook invoked on every crash (the experiment layer
// uses it to stop the crashed node's protocol state machines).
func (f *Net) OnCrash(fn func(transport.Addr)) { f.onCrash = append(f.onCrash, fn) }

// OnRestart registers a hook invoked on every restart.
func (f *Net) OnRestart(fn func(transport.Addr)) { f.onRestart = append(f.onRestart, fn) }

// --- scripting ---

// Step is one scripted fault action, executed on the virtual clock.
type Step struct {
	// At is the absolute virtual time of the action.
	At eventsim.Time
	// Do runs at that time with the fault network as receiver.
	Do func(f *Net)
}

// Install schedules every step of a fault script. Steps in the past
// (At <= Now) run on the next event-loop turn.
func (f *Net) Install(script []Step) {
	for _, st := range script {
		st := st
		d := st.At - f.inner.Now()
		if d < 0 {
			d = 0
		}
		f.inner.After(d, func() { st.Do(f) })
	}
}

// CrashAt schedules a crash at absolute virtual time at.
func (f *Net) CrashAt(at eventsim.Time, a transport.Addr) {
	f.Install([]Step{{At: at, Do: func(f *Net) { f.Crash(a) }}})
}

// RestartAt schedules a restart at absolute virtual time at.
func (f *Net) RestartAt(at eventsim.Time, a transport.Addr) {
	f.Install([]Step{{At: at, Do: func(f *Net) { f.Restart(a) }}})
}

// FlashCrowd builds a script for a burst of n arrivals spread evenly
// over [at, at+window): do(i) runs for arrival i = 0..n-1 at
// at + window*i/n, one step each. Hand the steps to Install (possibly
// merged with a crash script) and wire do to the join path under test,
// as the load study does. A window of 0 fires the whole crowd at once —
// the worst case. n <= 0 yields an empty script.
func FlashCrowd(at eventsim.Time, n int, window eventsim.Time, do func(i int, f *Net)) []Step {
	if n <= 0 {
		return nil
	}
	steps := make([]Step, 0, n)
	for i := 0; i < n; i++ {
		i := i
		steps = append(steps, Step{
			At: at + window*eventsim.Time(i)/eventsim.Time(n),
			Do: func(f *Net) { do(i, f) },
		})
	}
	return steps
}

// --- transport.Network ---

// Attach implements transport.Network. The handler is wrapped so that
// messages arriving at a crashed endpoint are dropped and counted. A
// negative address panics.
func (f *Net) Attach(a transport.Addr, h transport.Handler) {
	mustAddr("Attach", a)
	f.handlers = grow(f.handlers, int(a))
	f.handlers[a] = h
	f.inner.Attach(a, func(from transport.Addr, msg transport.Message) {
		if f.Crashed(a) {
			f.drop(&f.ctr.CrashDrops, from, a, 0, "crash")
			return
		}
		if cur := f.handlers[a]; cur != nil {
			cur(from, msg)
		}
	})
}

// Detach implements transport.Network.
func (f *Net) Detach(a transport.Addr) {
	if uint(a) < uint(len(f.handlers)) {
		f.handlers[a] = nil
	}
	f.inner.Detach(a)
}

// Send implements transport.Network, applying crash, partition and
// loss rules at send time and jitter before handing the message to the
// wrapped network. Fault checks run in a fixed order so the random
// stream is consumed deterministically.
func (f *Net) Send(from, to transport.Addr, sizeBytes int, msg transport.Message) {
	if f.Crashed(from) || f.Crashed(to) {
		f.drop(&f.ctr.CrashDrops, from, to, sizeBytes, "crash")
		return
	}
	if f.Partitioned(from, to) {
		f.drop(&f.ctr.PartitionDrops, from, to, sizeBytes, "partition")
		return
	}
	if p, ok := f.linkLoss[[2]transport.Addr{from, to}]; ok && f.rng.Float64() < p {
		f.drop(&f.ctr.LinkDrops, from, to, sizeBytes, "link-loss")
		return
	}
	if p, ok := f.nodeLoss[from]; ok && f.rng.Float64() < p {
		f.drop(&f.ctr.NodeDrops, from, to, sizeBytes, "node-loss")
		return
	}
	if p, ok := f.nodeLoss[to]; ok && f.rng.Float64() < p {
		f.drop(&f.ctr.NodeDrops, from, to, sizeBytes, "node-loss")
		return
	}
	if f.jitter > 0 {
		d := eventsim.Time(f.rng.Float64() * float64(f.jitter))
		f.ctr.Delayed++
		f.hJitter.Observe(float64(d))
		f.trace.Record(obs.Event{Time: f.inner.Now(), Kind: obs.KindDelay, From: int(from), To: int(to), Size: sizeBytes, Latency: float64(d)})
		j := jitterPool.Get().(*jitterSend)
		*j = jitterSend{inner: f.inner, from: from, to: to, sizeBytes: sizeBytes, msg: msg}
		f.CallAfter(d, j)
		return
	}
	f.inner.Send(from, to, sizeBytes, msg)
}

// jitterSend is a pooled deferred re-send for the jitter path; over
// networks implementing transport.RunnerScheduler it replaces the
// closure+timer allocation per jittered message (see CallAfter).
type jitterSend struct {
	inner     transport.Network
	from, to  transport.Addr
	sizeBytes int
	msg       transport.Message
}

var jitterPool = sync.Pool{New: func() interface{} { return new(jitterSend) }}

// RunEvent implements eventsim.Runner: hand the delayed message to the
// wrapped network.
func (j *jitterSend) RunEvent() {
	inner, from, to, sizeBytes, msg := j.inner, j.from, j.to, j.sizeBytes, j.msg
	*j = jitterSend{}
	jitterPool.Put(j)
	inner.Send(from, to, sizeBytes, msg)
}

// Now implements transport.Network.
func (f *Net) Now() eventsim.Time { return f.inner.Now() }

// After implements transport.Network.
func (f *Net) After(d eventsim.Time, fn func()) transport.CancelFunc {
	return f.inner.After(d, fn)
}

// CallAfter implements transport.RunnerScheduler: a pass-through to the
// wrapped network's, or to its After when it has none. Either way it
// schedules one event, as After does.
func (f *Net) CallAfter(d eventsim.Time, r eventsim.Runner) {
	if rs, ok := f.inner.(transport.RunnerScheduler); ok {
		rs.CallAfter(d, r)
		return
	}
	f.inner.After(d, r.RunEvent)
}

// Rand implements transport.Network: protocol randomness comes from
// the wrapped network, untouched by fault decisions.
func (f *Net) Rand() *rand.Rand { return f.inner.Rand() }

var _ transport.Network = (*Net)(nil)
