// ShardedSim: the simulated network partitioned across an
// eventsim.ShardGroup for conservative parallel execution. Address a
// lives on shard a mod n, and each shard is a Sim over its own engine,
// with its own endpoint tables (slot a / n), stats and randomness, so
// protocol nodes written for a standalone Sim run unchanged against
// their shard's view and every message takes the one Send and delivery
// path in transport.go.
//
// A send within a shard is scheduled on its engine at once. A send that
// crosses shards waits in the sending shard's outbox and is handed to
// the target engine at the next window barrier — legal because the
// group's window never exceeds Lookahead, the minimum cross-shard
// latency, so every cross-shard message arrives at or after the barrier
// at which it is flushed. A latency below Lookahead on a cross-shard
// pair is a configuration error and panics loudly rather than silently
// reordering causality.
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
// methods are safe from the driving goroutine; inside a window each
// shard's Sim runs only on its own engine's events.
type ShardedSim struct {
	group     *eventsim.ShardGroup
	shards    []*Sim
	lookahead eventsim.Time
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
		shards:    make([]*Sim, opt.Shards),
		lookahead: opt.Lookahead,
	}
	for i := range s.shards {
		sh := NewSim(s.group.Engine(i), SimOptions{Latency: opt.Latency, Bottleneck: opt.Bottleneck, LossProb: opt.LossProb})
		sh.owner, sh.id, sh.n = s, i, opt.Shards
		s.shards[i] = sh
	}
	return s
}

// View returns the Network the given address lives on. A protocol node
// must be built against its own address's view; handing a node some
// other shard's view panics at Attach.
func (s *ShardedSim) View(a Addr) Network { return s.shards[int(a)%len(s.shards)] }

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
	s.shards[int(a)%len(s.shards)].SetDown(a, down)
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
			d.sim.engine.CallAt(d.arrive, d)
		}
		sh.outbox = sh.outbox[:0]
	}
}
