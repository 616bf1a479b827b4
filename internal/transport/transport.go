// Package transport abstracts message delivery between overlay nodes so
// the same protocol state machines (DHT maintenance, SOMO gather,
// coordinate and bandwidth probing) run unchanged over any Network.
//
// Sim is the deterministic virtual-time network: delivery over an
// eventsim engine, with per-pair latency from a topology model and
// optional packet-pair serialization from a bandwidth model. ShardedSim
// (sharded.go) partitions the same network over several engines that
// advance in lockstep windows, and each of its shards is a Sim, so
// there is one send and one delivery path for both.
//
// Addresses are host indices into the topology; protocols carry logical
// IDs inside their own messages. Address a lives on shard a mod n, in
// slot a / n of that shard's endpoint tables (a standalone Sim is shard
// 0 of 1). Because addresses are dense, every endpoint table is a slice
// indexed by slot (DESIGN.md §5 "What one message costs"): a negative
// address panics where it is attached or marked, and a send to a
// negative address or one past the end of a table is a counted drop.
package transport

import (
	"fmt"
	"math/rand"
	"sync"

	"p2ppool/internal/eventsim"
	"p2ppool/internal/obs"
)

// Addr identifies an attached endpoint (a host index in the topology).
type Addr int

// NoAddr is the zero-value-adjacent sentinel for "no endpoint".
const NoAddr Addr = -1

// Message is an opaque protocol payload; receivers type-switch on it.
type Message interface{}

// Handler receives a delivered message.
type Handler func(from Addr, msg Message)

// CancelFunc stops a pending timer; it reports whether it prevented the
// callback from running.
type CancelFunc func() bool

// Network is the environment a protocol node runs in: a clock, timers,
// randomness and message delivery.
type Network interface {
	// Attach registers a handler for an address. Attaching twice
	// replaces the handler (a rejoining node).
	Attach(a Addr, h Handler)
	// Detach removes the endpoint; in-flight messages to it are dropped.
	Detach(a Addr)
	// Send delivers msg from one endpoint to another. sizeBytes models
	// the wire size (used for serialization/packet-pair effects and
	// traffic accounting); it must be >= 0.
	Send(from, to Addr, sizeBytes int, msg Message)
	// Now returns the current time in virtual milliseconds.
	Now() eventsim.Time
	// After schedules fn after d; the CancelFunc stops it.
	After(d eventsim.Time, fn func()) CancelFunc
	// Rand returns the network's random source. In Sim mode it is the
	// engine's deterministic stream.
	Rand() *rand.Rand
}

// Stats is cumulative traffic accounting.
type Stats struct {
	MessagesSent      uint64
	MessagesDelivered uint64
	MessagesDropped   uint64
	BytesSent         uint64
}

// LatencyFunc returns one-way latency in milliseconds between two
// endpoints.
type LatencyFunc func(a, b int) float64

// BottleneckFunc returns the bottleneck bandwidth in kbps of the path
// from src to dst; it is used to serialize back-to-back messages
// (packet-pair dispersion). A nil function means infinite bandwidth.
type BottleneckFunc func(src, dst int) float64

// Sim is the deterministic virtual-time network, standalone or as one
// shard of a ShardedSim.
type Sim struct {
	engine   *eventsim.Engine
	latency  LatencyFunc
	lossProb float64

	// owner is the ShardedSim this Sim is shard id of n in; a standalone
	// Sim has none and is shard 0 of 1.
	owner *ShardedSim
	id, n int

	// handlers and down are indexed by slot; a slot past the end has no
	// handler and is up.
	handlers []Handler
	down     []bool
	// pp is the packet-pair serialization state, nil without a
	// Bottleneck.
	pp *packetPair
	// outbox buffers cross-shard deliveries until the barrier flush.
	outbox []*delivery

	stats Stats

	// Observability handles (nil when uninstrumented; every operation
	// on them is then a no-op, so Send's behavior — event schedule,
	// randomness, stats — is identical either way).
	trace     *obs.Trace
	hDelivery *obs.Histogram
}

// SimOptions configures a Sim network.
type SimOptions struct {
	// Latency is required: per-pair one-way delay in milliseconds. It
	// must be pure — the same pair always gets the same delay — so that
	// without a Bottleneck messages on one directed pair arrive in the
	// order they were sent with no per-pair state.
	Latency LatencyFunc
	// Bottleneck is optional: enables serialization of back-to-back
	// sends for packet-pair measurement.
	Bottleneck BottleneckFunc
	// LossProb drops each message independently with this probability.
	LossProb float64
}

// NewSim creates a simulated network on the given engine.
func NewSim(engine *eventsim.Engine, opt SimOptions) *Sim {
	if opt.Latency == nil {
		panic("transport: SimOptions.Latency is required")
	}
	return &Sim{
		engine:   engine,
		latency:  opt.Latency,
		lossProb: opt.LossProb,
		n:        1,
		pp:       newPacketPair(opt.Bottleneck),
	}
}

// packetPair serializes back-to-back sends at the path bottleneck — the
// dispersion Section 4.2 measures. lastArrival tracks, per directed
// pair, when the previous message finished arriving; a message sent
// back-to-back lands no earlier than that plus its own serialization
// delay. Without a bottleneck the state could never bind: serialization
// is 0, latency is pure and the clock never goes backwards, so the
// previous arrival on a pair is never later than this one (DESIGN.md §5
// "What one message costs").
type packetPair struct {
	bottleneck  BottleneckFunc
	lastArrival map[[2]Addr]eventsim.Time
}

func newPacketPair(bottleneck BottleneckFunc) *packetPair {
	if bottleneck == nil {
		return nil
	}
	return &packetPair{bottleneck: bottleneck, lastArrival: make(map[[2]Addr]eventsim.Time)}
}

// arrival returns when a message of sizeBytes from -> to, which would
// land at arrive on an idle path, finishes arriving.
func (p *packetPair) arrival(from, to Addr, sizeBytes int, arrive eventsim.Time) eventsim.Time {
	var ser eventsim.Time
	if sizeBytes > 0 {
		if bw := p.bottleneck(int(from), int(to)); bw > 0 { // kbps
			ser = eventsim.Time(float64(sizeBytes*8) / bw) // ms
		}
	}
	key := [2]Addr{from, to}
	if prev, ok := p.lastArrival[key]; ok && prev+ser > arrive {
		arrive = prev + ser
	} else {
		arrive += ser
	}
	p.lastArrival[key] = arrive
	return arrive
}

// mustAddr panics, naming the call and the address, on a negative
// address: tables are indexed by address, and NoAddr must fail where it
// is handed in rather than deep inside the event loop.
func mustAddr(op string, a Addr) {
	if a < 0 {
		panic(fmt.Sprintf("transport: %s(%d): negative address", op, a))
	}
}

// grow extends t with zero values until index i is valid.
func grow[T any](t []T, i int) []T {
	if i < len(t) {
		return t
	}
	return append(t, make([]T, i+1-len(t))...)
}

// Instrument wires the simulated transport to an observability
// registry and trace. Recording draws no randomness and schedules no
// events, so an instrumented run is event-identical to an
// uninstrumented one (the zero-observer-effect contract). Either
// argument may be nil.
func (s *Sim) Instrument(reg *obs.Registry, trace *obs.Trace) {
	s.trace = trace
	reg.Counter("transport.sent", func() uint64 { return s.stats.MessagesSent })
	reg.Counter("transport.delivered", func() uint64 { return s.stats.MessagesDelivered })
	reg.Counter("transport.dropped", func() uint64 { return s.stats.MessagesDropped })
	reg.Counter("transport.bytes", func() uint64 { return s.stats.BytesSent })
	s.hDelivery = reg.Histogram("transport.delivery_ms", nil)
}

// slot returns a's index in this shard's tables. It panics, naming the
// call, on an address another shard owns.
func (s *Sim) slot(op string, a Addr) int {
	if int(a)%s.n != s.id {
		panic(fmt.Sprintf("transport: %s(%d) on shard %d, belongs to shard %d", op, a, s.id, int(a)%s.n))
	}
	return int(a) / s.n
}

// Attach implements Network. It panics on a negative address and on one
// another shard owns.
func (s *Sim) Attach(a Addr, h Handler) {
	mustAddr("Attach", a)
	i := s.slot("Attach", a)
	s.handlers = grow(s.handlers, i)
	s.handlers[i] = h
}

// Detach implements Network.
func (s *Sim) Detach(a Addr) {
	if i := s.slot("Detach", a); uint(i) < uint(len(s.handlers)) {
		s.handlers[i] = nil
	}
}

// SetDown marks an endpoint as failed (true) or recovered (false).
// A down endpoint neither sends nor receives; its handler stays
// registered so recovery is a single call. It panics on a negative
// address and on one another shard owns.
func (s *Sim) SetDown(a Addr, down bool) {
	mustAddr("SetDown", a)
	i := s.slot("SetDown", a)
	if down {
		s.down = grow(s.down, i)
	}
	if i < len(s.down) {
		s.down[i] = down
	}
}

// IsDown reports whether the endpoint is marked failed. Only addresses
// this shard owns can be. It divides only on a shard of several, and
// only once something is marked.
func (s *Sim) IsDown(a Addr) bool {
	if len(s.down) == 0 {
		return false
	}
	i := int(a)
	if s.n > 1 {
		if i%s.n != s.id {
			return false
		}
		i /= s.n
	}
	return uint(i) < uint(len(s.down)) && s.down[i]
}

// Send implements Network. Delivery time is now + latency, and with a
// Bottleneck
//
//	max(now + latency, lastArrival(from,to)) + serialization
//
// so two messages sent in the same instant arrive separated by the
// second one's serialization delay at the path bottleneck — the
// packet-pair effect Section 4.2 measures. A message to another shard
// waits in the outbox for the barrier flush; its latency must not be
// below the lookahead. A standalone Sim drops a send to a down
// recipient here; a shard cannot read another shard's marks
// mid-window, so it checks the recipient only at delivery.
func (s *Sim) Send(from, to Addr, sizeBytes int, msg Message) {
	s.stats.MessagesSent++
	s.stats.BytesSent += uint64(sizeBytes)
	if s.trace != nil { // even a no-op Record call is ~5% of ring's event loop
		s.trace.Record(obs.Event{Time: s.engine.Now(), Kind: obs.KindSend, From: int(from), To: int(to), Size: sizeBytes})
	}
	if s.IsDown(from) || s.owner == nil && s.IsDown(to) {
		s.drop(from, to, sizeBytes, "down-endpoint")
		return
	}
	if s.lossProb > 0 && s.engine.Rand().Float64() < s.lossProb {
		s.drop(from, to, sizeBytes, "loss")
		return
	}
	lat := eventsim.Time(s.latency(int(from), int(to)))
	// A negative recipient stays here, to be dropped at delivery.
	target, slot := s, int(to)
	if s.owner != nil && to >= 0 {
		target, slot = s.owner.shards[int(to)%s.n], int(to)/s.n
		if target != s && lat < s.owner.lookahead {
			panic(fmt.Sprintf(
				"transport: cross-shard latency %v (%d->%d) below lookahead %v",
				lat, from, to, s.owner.lookahead))
		}
	}
	arrive := s.engine.Now() + lat
	if s.pp != nil {
		arrive = s.pp.arrival(from, to, sizeBytes, arrive)
	}
	d := deliveryPool.Get().(*delivery)
	*d = delivery{sim: target, from: from, to: to, slot: slot, sizeBytes: sizeBytes, msg: msg, sentAt: s.engine.Now(), arrive: arrive}
	if target == s {
		s.engine.CallAt(arrive, d)
		return
	}
	s.outbox = append(s.outbox, d)
}

// delivery is a pooled in-flight message. Scheduling it through
// Engine.CallAt instead of a closure-capturing Timer removes the
// ~3 allocations per send (closure, Timer, heap boxing) that otherwise
// scale with N·heartbeat-rate. It fires on the recipient's shard, where
// slot indexes the handler and down tables.
type delivery struct {
	sim       *Sim
	from, to  Addr
	slot      int
	sizeBytes int
	msg       Message
	sentAt    eventsim.Time
	arrive    eventsim.Time
}

var deliveryPool = sync.Pool{New: func() interface{} { return new(delivery) }}

// RunEvent implements eventsim.Runner: the arrival of the message.
func (d *delivery) RunEvent() {
	s, from, to, i, sizeBytes, msg := d.sim, d.from, d.to, d.slot, d.sizeBytes, d.msg
	oneWay := float64(d.arrive - d.sentAt)
	arrive := d.arrive
	*d = delivery{} // drop the msg reference before pooling
	deliveryPool.Put(d)
	if uint(i) < uint(len(s.down)) && s.down[i] {
		s.drop(from, to, sizeBytes, "down-endpoint")
		return
	}
	var h Handler
	if uint(i) < uint(len(s.handlers)) {
		h = s.handlers[i]
	}
	if h == nil {
		s.drop(from, to, sizeBytes, "no-handler")
		return
	}
	s.stats.MessagesDelivered++
	s.hDelivery.Observe(oneWay)
	if s.trace != nil {
		s.trace.Record(obs.Event{Time: arrive, Kind: obs.KindDeliver, From: int(from), To: int(to), Size: sizeBytes, Latency: oneWay})
	}
	h(from, msg)
}

// drop counts a dropped message and records it in the trace.
func (s *Sim) drop(from, to Addr, sizeBytes int, cause string) {
	s.stats.MessagesDropped++
	if s.trace != nil {
		s.trace.Record(obs.Event{Time: s.engine.Now(), Kind: obs.KindDrop, From: int(from), To: int(to), Size: sizeBytes, Cause: cause})
	}
}

// Now implements Network.
func (s *Sim) Now() eventsim.Time { return s.engine.Now() }

// After implements Network.
func (s *Sim) After(d eventsim.Time, fn func()) CancelFunc {
	t := s.engine.Schedule(d, fn)
	return t.Stop
}

// RunnerScheduler is implemented by networks that can schedule a
// pre-allocated eventsim.Runner without allocating a timer or closure.
// Its users (faultnet, which also passes it through, and dataplane's
// transfer completions) type-assert for it and fall back to After when
// absent; either path schedules exactly one event, so the simulation's
// event sequence is identical.
type RunnerScheduler interface {
	CallAfter(d eventsim.Time, r eventsim.Runner)
}

// CallAfter implements RunnerScheduler on the simulated network.
func (s *Sim) CallAfter(d eventsim.Time, r eventsim.Runner) {
	s.engine.CallAfter(d, r)
}

// Rand implements Network.
func (s *Sim) Rand() *rand.Rand { return s.engine.Rand() }

// Stats returns a copy of the cumulative traffic counters. Like every
// other Sim method it is single-threaded: call it only from the
// goroutine driving the engine (the event loop), never concurrently
// with Send or event execution.
func (s *Sim) Stats() Stats { return s.stats }

var _ Network = (*Sim)(nil)
