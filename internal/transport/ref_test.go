package transport

import (
	"fmt"
	"math/rand"
	"sync"

	"p2ppool/internal/eventsim"
)

// This file keeps the send path Sim and ShardedSim had before PR 25 —
// endpoint tables in maps, and packet-pair state read and written on
// every send whether or not a Bottleneck is set — as the model the dense
// tables are fuzzed against (differential_test.go). Attach, Detach,
// SetDown, Send and RunEvent are verbatim but for the observability
// hooks, which are no-ops on an uninstrumented Sim.
//
// skipLastArrival is the seeded mutation: it drops the packet-pair state
// even with a Bottleneck set, which the fuzz seeds must catch.

// refSim is the pre-PR-25 Sim.
type refSim struct {
	engine     *eventsim.Engine
	latency    LatencyFunc
	bottleneck BottleneckFunc
	lossProb   float64

	handlers    map[Addr]Handler
	down        map[Addr]bool
	lastArrival map[[2]Addr]eventsim.Time

	stats Stats

	skipLastArrival bool
}

func newRefSim(engine *eventsim.Engine, opt SimOptions) *refSim {
	return &refSim{
		engine:      engine,
		latency:     opt.Latency,
		bottleneck:  opt.Bottleneck,
		lossProb:    opt.LossProb,
		handlers:    make(map[Addr]Handler),
		down:        make(map[Addr]bool),
		lastArrival: make(map[[2]Addr]eventsim.Time),
	}
}

func (s *refSim) Attach(a Addr, h Handler) { s.handlers[a] = h }

func (s *refSim) Detach(a Addr) { delete(s.handlers, a) }

func (s *refSim) SetDown(a Addr, down bool) {
	if down {
		s.down[a] = true
	} else {
		delete(s.down, a)
	}
}

func (s *refSim) Now() eventsim.Time { return s.engine.Now() }

func (s *refSim) Send(from, to Addr, sizeBytes int, msg Message) {
	s.stats.MessagesSent++
	s.stats.BytesSent += uint64(sizeBytes)
	if s.down[from] || s.down[to] {
		s.stats.MessagesDropped++
		return
	}
	if s.lossProb > 0 && s.engine.Rand().Float64() < s.lossProb {
		s.stats.MessagesDropped++
		return
	}
	lat := eventsim.Time(s.latency(int(from), int(to)))
	arrive := s.engine.Now() + lat
	var ser eventsim.Time
	if s.bottleneck != nil && sizeBytes > 0 {
		bw := s.bottleneck(int(from), int(to)) // kbps
		if bw > 0 {
			ser = eventsim.Time(float64(sizeBytes*8) / bw) // ms
		}
	}
	key := [2]Addr{from, to}
	if prev, ok := s.lastArrival[key]; ok && prev+ser > arrive && !s.skipLastArrival {
		arrive = prev + ser
	} else {
		arrive += ser
	}
	s.lastArrival[key] = arrive
	d := refDeliveryPool.Get().(*refDelivery)
	*d = refDelivery{sim: s, from: from, to: to, sizeBytes: sizeBytes, msg: msg, sentAt: s.engine.Now(), arrive: arrive}
	s.engine.CallAt(arrive, d)
}

type refDelivery struct {
	sim       *refSim
	from, to  Addr
	sizeBytes int
	msg       Message
	sentAt    eventsim.Time
	arrive    eventsim.Time
}

var refDeliveryPool = sync.Pool{New: func() interface{} { return new(refDelivery) }}

func (d *refDelivery) RunEvent() {
	s, from, to, msg := d.sim, d.from, d.to, d.msg
	*d = refDelivery{} // drop the msg reference before pooling
	refDeliveryPool.Put(d)
	if s.down[to] {
		s.stats.MessagesDropped++
		return
	}
	h, ok := s.handlers[to]
	if !ok {
		s.stats.MessagesDropped++
		return
	}
	s.stats.MessagesDelivered++
	h(from, msg)
}

// refShardedSim is the pre-PR-25 ShardedSim.
type refShardedSim struct {
	group     *eventsim.ShardGroup
	shards    []*refShard
	lookahead eventsim.Time
}

type refShard struct {
	owner  *refShardedSim
	id     int
	engine *eventsim.Engine

	latency    LatencyFunc
	bottleneck BottleneckFunc
	lossProb   float64

	handlers    map[Addr]Handler
	down        map[Addr]bool
	lastArrival map[[2]Addr]eventsim.Time
	stats       Stats
	outbox      []*refShardedDelivery

	skipLastArrival bool
}

func newRefShardedSim(opt ShardedSimOptions) *refShardedSim {
	s := &refShardedSim{
		group:     eventsim.NewShardGroup(opt.Shards, opt.Seed, opt.Workers),
		shards:    make([]*refShard, opt.Shards),
		lookahead: opt.Lookahead,
	}
	for i := range s.shards {
		s.shards[i] = &refShard{
			owner:       s,
			id:          i,
			engine:      s.group.Engine(i),
			latency:     opt.Latency,
			bottleneck:  opt.Bottleneck,
			lossProb:    opt.LossProb,
			handlers:    make(map[Addr]Handler),
			down:        make(map[Addr]bool),
			lastArrival: make(map[[2]Addr]eventsim.Time),
		}
	}
	return s
}

func (s *refShardedSim) shardFor(a Addr) int { return int(a) % len(s.shards) }

func (s *refShardedSim) View(a Addr) *refShard { return s.shards[s.shardFor(a)] }

func (s *refShardedSim) Stats() Stats {
	var t Stats
	for _, sh := range s.shards {
		t.MessagesSent += sh.stats.MessagesSent
		t.MessagesDelivered += sh.stats.MessagesDelivered
		t.MessagesDropped += sh.stats.MessagesDropped
		t.BytesSent += sh.stats.BytesSent
	}
	return t
}

func (s *refShardedSim) SetDown(a Addr, down bool) {
	sh := s.shards[s.shardFor(a)]
	if down {
		sh.down[a] = true
	} else {
		delete(sh.down, a)
	}
}

func (s *refShardedSim) RunUntil(deadline eventsim.Time) uint64 {
	return s.group.RunUntil(deadline, s.lookahead, s.flush)
}

func (s *refShardedSim) flush(limit eventsim.Time) {
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

func (sh *refShard) Attach(a Addr, h Handler) {
	if sh.owner.shardFor(a) != sh.id {
		panic(fmt.Sprintf("transport: attaching addr %d to shard %d, belongs to shard %d",
			a, sh.id, sh.owner.shardFor(a)))
	}
	sh.handlers[a] = h
}

func (sh *refShard) Detach(a Addr) {
	if sh.owner.shardFor(a) != sh.id {
		panic(fmt.Sprintf("transport: detaching addr %d from shard %d, belongs to shard %d",
			a, sh.id, sh.owner.shardFor(a)))
	}
	delete(sh.handlers, a)
}

func (sh *refShard) Send(from, to Addr, sizeBytes int, msg Message) {
	sh.stats.MessagesSent++
	sh.stats.BytesSent += uint64(sizeBytes)
	if sh.down[from] {
		sh.stats.MessagesDropped++
		return
	}
	if sh.lossProb > 0 && sh.engine.Rand().Float64() < sh.lossProb {
		sh.stats.MessagesDropped++
		return
	}
	lat := eventsim.Time(sh.latency(int(from), int(to)))
	target := sh.owner.shards[sh.owner.shardFor(to)]
	if target != sh && lat < sh.owner.lookahead {
		panic(fmt.Sprintf(
			"transport: cross-shard latency %v (%d->%d) below lookahead %v",
			lat, from, to, sh.owner.lookahead))
	}
	arrive := sh.engine.Now() + lat
	var ser eventsim.Time
	if sh.bottleneck != nil && sizeBytes > 0 {
		if bw := sh.bottleneck(int(from), int(to)); bw > 0 {
			ser = eventsim.Time(float64(sizeBytes*8) / bw)
		}
	}
	key := [2]Addr{from, to}
	if prev, ok := sh.lastArrival[key]; ok && prev+ser > arrive && !sh.skipLastArrival {
		arrive = prev + ser
	} else {
		arrive += ser
	}
	sh.lastArrival[key] = arrive
	d := refShardedDeliveryPool.Get().(*refShardedDelivery)
	*d = refShardedDelivery{to: target, from: from, addr: to, sizeBytes: sizeBytes, msg: msg, arrive: arrive}
	if target == sh {
		sh.engine.CallAt(arrive, d)
		return
	}
	sh.outbox = append(sh.outbox, d)
}

func (sh *refShard) Now() eventsim.Time { return sh.engine.Now() }

func (sh *refShard) Rand() *rand.Rand { return sh.engine.Rand() }

type refShardedDelivery struct {
	to        *refShard
	from      Addr
	addr      Addr
	sizeBytes int
	msg       Message
	arrive    eventsim.Time
}

var refShardedDeliveryPool = sync.Pool{New: func() interface{} { return new(refShardedDelivery) }}

func (d *refShardedDelivery) RunEvent() {
	sh, from, to, msg := d.to, d.from, d.addr, d.msg
	*d = refShardedDelivery{}
	refShardedDeliveryPool.Put(d)
	if sh.down[to] {
		sh.stats.MessagesDropped++
		return
	}
	h, ok := sh.handlers[to]
	if !ok {
		sh.stats.MessagesDropped++
		return
	}
	sh.stats.MessagesDelivered++
	h(from, msg)
}
