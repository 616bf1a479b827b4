// ShardedSim: the simulated network partitioned across an
// eventsim.ShardGroup for conservative parallel execution. Hosts are
// partitioned by address (addr mod shards); each shard is a Network in
// its own right, backed by its own engine, handler table, stats and
// randomness, so protocol nodes written for the single-threaded Sim
// run unchanged against their shard's view.
//
// A shard's endpoint tables are slices indexed by a / shards, so each is
// dense over the addresses the shard owns and is written only by it.
//
// Sends inside a shard follow the exact Sim delivery path. Sends that
// cross shards are buffered in the sending shard's outbox and handed to
// the target engine at the next window barrier — legal because the
// group's window never exceeds Lookahead, the minimum cross-shard
// latency, so every cross-shard message arrives at or after the
// barrier at which it is flushed. A latency below Lookahead on a
// cross-shard pair is a configuration error and panics loudly rather
// than silently reordering causality.
//
// Determinism is independent of Workers: shard count is structural (it
// changes the partition, so it is part of the experiment's identity,
// like a seed), each shard's engine has its own seeded stream, and
// outboxes flush serially in shard-index order. Workers only bounds
// how many shards advance concurrently between barriers, and only in
// windows busy enough for that to pay (eventsim.ShardGroup decides per
// window; lighter ones run their shards in order on the driving
// goroutine).
package transport

import (
	"fmt"
	"math/rand"
	"sync"

	"p2ppool/internal/eventsim"
)

// ShardedSimOptions configures a ShardedSim.
type ShardedSimOptions struct {
	// Latency is required: per-pair one-way delay in milliseconds. It is
	// queried from multiple shards concurrently and must be pure.
	Latency LatencyFunc
	// Bottleneck optionally serializes back-to-back sends (packet-pair);
	// it must be pure. Serialization state is per directed pair and
	// lives on the sending shard, so it needs no cross-shard locking;
	// without a Bottleneck there is none.
	Bottleneck BottleneckFunc
	// LossProb drops each message independently with this probability,
	// drawn from the sending shard's deterministic stream.
	LossProb float64
	// Shards is the structural partition count (default 8). Changing it
	// changes which addresses share an engine — it is part of the
	// run's identity, never derived from Workers.
	Shards int
	// Lookahead is the window bound: no cross-shard pair may have
	// latency below it. For the transit-stub topology the safe value is
	// 2×LastHopMin (every cross-host path crosses two last hops).
	Lookahead eventsim.Time
	// Workers bounds concurrent shard execution (<= 1 means serial). A
	// window is split across min(Workers, Shards) goroutines only when
	// the previous one held enough events to pay for the split (see
	// eventsim.ShardGroup); the results are identical either way.
	Workers int
	// Seed derives each shard engine's random stream.
	Seed int64
}

// ShardedSim is the partitioned simulated network. Create with
// NewShardedSim; drive it with RunUntil. Between RunUntil calls all
// methods are safe from the driving goroutine.
type ShardedSim struct {
	group     *eventsim.ShardGroup
	shards    []*simShard
	lookahead eventsim.Time
}

// simShard is one shard's Network view. All of its methods run either
// on the driving goroutine (between windows) or on its own engine's
// events (inside a window) — never concurrently.
type simShard struct {
	owner  *ShardedSim
	id     int
	n      int // shard count: address a is slot a / n of shard a % n
	engine *eventsim.Engine

	latency  LatencyFunc
	lossProb float64
	pp       *packetPair // nil without a Bottleneck

	// handlers and down are indexed by slot; a slot past the end has no
	// handler and is up.
	handlers []Handler
	down     []bool
	stats    Stats
	outbox   []*shardedDelivery
}

// NewShardedSim creates a partitioned network.
func NewShardedSim(opt ShardedSimOptions) *ShardedSim {
	if opt.Latency == nil {
		panic("transport: ShardedSimOptions.Latency is required")
	}
	if opt.Lookahead <= 0 {
		panic("transport: ShardedSimOptions.Lookahead must be positive")
	}
	if opt.Shards <= 0 {
		opt.Shards = 8
	}
	s := &ShardedSim{
		group:     eventsim.NewShardGroup(opt.Shards, opt.Seed, opt.Workers),
		shards:    make([]*simShard, opt.Shards),
		lookahead: opt.Lookahead,
	}
	for i := range s.shards {
		s.shards[i] = &simShard{
			owner:    s,
			id:       i,
			n:        opt.Shards,
			engine:   s.group.Engine(i),
			latency:  opt.Latency,
			lossProb: opt.LossProb,
			pp:       newPacketPair(opt.Bottleneck),
		}
	}
	return s
}

// Shards returns the structural shard count.
func (s *ShardedSim) Shards() int { return len(s.shards) }

// shardFor maps an address to its owning shard index.
func (s *ShardedSim) shardFor(a Addr) int { return int(a) % len(s.shards) }

// View returns the Network the given address lives on. A protocol node
// must be built against its own address's view; handing a node some
// other shard's view panics at Attach.
func (s *ShardedSim) View(a Addr) Network { return s.shards[s.shardFor(a)] }

// Engine exposes a shard's engine (tests and experiment drivers).
func (s *ShardedSim) Engine(i int) *eventsim.Engine { return s.group.Engine(i) }

// Now returns the group clock (the last barrier reached).
func (s *ShardedSim) Now() eventsim.Time { return s.group.Now() }

// Processed returns total events executed across shards.
func (s *ShardedSim) Processed() uint64 { return s.group.Processed() }

// Stats sums per-shard traffic counters in shard order. Call only
// between RunUntil invocations.
func (s *ShardedSim) Stats() Stats {
	var t Stats
	for _, sh := range s.shards {
		t.MessagesSent += sh.stats.MessagesSent
		t.MessagesDelivered += sh.stats.MessagesDelivered
		t.MessagesDropped += sh.stats.MessagesDropped
		t.BytesSent += sh.stats.BytesSent
	}
	return t
}

// SetDown marks an endpoint failed or recovered (between windows only).
// It panics on a negative address.
func (s *ShardedSim) SetDown(a Addr, down bool) {
	mustAddr("SetDown", a)
	sh, i := s.shards[s.shardFor(a)], int(a)/len(s.shards)
	if down {
		sh.down = grow(sh.down, i)
	}
	if i < len(sh.down) {
		sh.down[i] = down
	}
}

// RunUntil advances the simulation to deadline in lookahead-sized
// lockstep windows, flushing cross-shard outboxes at each barrier. It
// returns the number of events executed.
func (s *ShardedSim) RunUntil(deadline eventsim.Time) uint64 {
	return s.group.RunUntil(deadline, s.lookahead, s.flush)
}

// flush hands every buffered cross-shard delivery to its target engine,
// in shard-index order then send order — single-threaded, so the
// resulting event sequence numbers are reproducible.
func (s *ShardedSim) flush(limit eventsim.Time) {
	for _, sh := range s.shards {
		for _, d := range sh.outbox {
			if d.arrive < limit {
				panic(fmt.Sprintf(
					"transport: cross-shard delivery at %v before barrier %v (lookahead %v violated)",
					d.arrive, limit, s.lookahead))
			}
			d.to.engine.CallAt(d.arrive, d)
		}
		sh.outbox = sh.outbox[:0]
	}
}

// Attach implements Network. The address must belong to this shard; a
// negative one panics.
func (sh *simShard) Attach(a Addr, h Handler) {
	mustAddr("Attach", a)
	if sh.owner.shardFor(a) != sh.id {
		panic(fmt.Sprintf("transport: attaching addr %d to shard %d, belongs to shard %d",
			a, sh.id, sh.owner.shardFor(a)))
	}
	i := int(a) / sh.n
	sh.handlers = grow(sh.handlers, i)
	sh.handlers[i] = h
}

// Detach implements Network.
func (sh *simShard) Detach(a Addr) {
	if sh.owner.shardFor(a) != sh.id {
		panic(fmt.Sprintf("transport: detaching addr %d from shard %d, belongs to shard %d",
			a, sh.id, sh.owner.shardFor(a)))
	}
	if i := int(a) / sh.n; i < len(sh.handlers) {
		sh.handlers[i] = nil
	}
}

// isDown reports whether a is marked down. Only addresses this shard
// owns can be: SetDown writes the owner's table.
func (sh *simShard) isDown(a Addr) bool {
	if len(sh.down) == 0 {
		return false
	}
	i := int(a) / sh.n
	return int(a)%sh.n == sh.id && i < len(sh.down) && sh.down[i]
}

// Send implements Network. Same-shard messages take the Sim delivery
// path on this shard's engine; cross-shard messages are buffered for
// the barrier flush. The arrival time — max(now+latency,
// lastArrival) + serialization — is computed identically either way.
// The recipient's down state is checked at delivery time on its own
// shard (the sender cannot read another shard's state mid-window).
func (sh *simShard) Send(from, to Addr, sizeBytes int, msg Message) {
	sh.stats.MessagesSent++
	sh.stats.BytesSent += uint64(sizeBytes)
	if sh.isDown(from) {
		sh.stats.MessagesDropped++
		return
	}
	if sh.lossProb > 0 && sh.engine.Rand().Float64() < sh.lossProb {
		sh.stats.MessagesDropped++
		return
	}
	lat := eventsim.Time(sh.latency(int(from), int(to)))
	target := sh.owner.shards[int(to)%sh.n]
	if target != sh && lat < sh.owner.lookahead {
		panic(fmt.Sprintf(
			"transport: cross-shard latency %v (%d->%d) below lookahead %v",
			lat, from, to, sh.owner.lookahead))
	}
	arrive := sh.engine.Now() + lat
	if sh.pp != nil {
		arrive = sh.pp.arrival(from, to, sizeBytes, arrive)
	}
	d := shardedDeliveryPool.Get().(*shardedDelivery)
	*d = shardedDelivery{to: target, from: from, slot: int(to) / sh.n, sizeBytes: sizeBytes, msg: msg, arrive: arrive}
	if target == sh {
		sh.engine.CallAt(arrive, d)
		return
	}
	sh.outbox = append(sh.outbox, d)
}

// shardedDelivery is a pooled in-flight message; RunEvent fires on the
// *target* shard's engine, where the handler table and delivered/drop
// stats live. slot is the recipient's index in that shard's tables.
type shardedDelivery struct {
	to        *simShard
	from      Addr
	slot      int
	sizeBytes int
	msg       Message
	arrive    eventsim.Time
}

var shardedDeliveryPool = sync.Pool{New: func() interface{} { return new(shardedDelivery) }}

// RunEvent implements eventsim.Runner.
func (d *shardedDelivery) RunEvent() {
	sh, from, i, msg := d.to, d.from, d.slot, d.msg
	*d = shardedDelivery{}
	shardedDeliveryPool.Put(d)
	if i < len(sh.down) && sh.down[i] {
		sh.stats.MessagesDropped++
		return
	}
	var h Handler
	if i < len(sh.handlers) {
		h = sh.handlers[i]
	}
	if h == nil {
		sh.stats.MessagesDropped++
		return
	}
	sh.stats.MessagesDelivered++
	h(from, msg)
}

// Now implements Network.
func (sh *simShard) Now() eventsim.Time { return sh.engine.Now() }

// After implements Network.
func (sh *simShard) After(d eventsim.Time, fn func()) CancelFunc {
	t := sh.engine.Schedule(d, fn)
	return t.Stop
}

// CallAfter implements RunnerScheduler (same-shard only: the runner
// fires on this shard's engine).
func (sh *simShard) CallAfter(d eventsim.Time, r eventsim.Runner) {
	sh.engine.CallAfter(d, r)
}

// Rand implements Network: this shard's deterministic stream.
func (sh *simShard) Rand() *rand.Rand { return sh.engine.Rand() }

var _ Network = (*simShard)(nil)
