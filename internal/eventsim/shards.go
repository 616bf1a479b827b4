// Conservative parallel discrete-event simulation: a ShardGroup runs K
// independent Engines in lockstep windows. Within a window, shards
// execute concurrently — safe because the partitioning layer above
// (transport.ShardedSim) guarantees a window never exceeds the
// lookahead, the minimum cross-shard latency, so no event fired inside
// a window can affect another shard within the same window. At each
// window barrier a single-threaded flush hands buffered cross-shard
// messages to their target engines.
//
// A window runs concurrently only after one of minSplitEvents events or
// more; lighter ones run in shard order on the calling goroutine. Output
// depends on neither that nor the worker count: engines are seeded
// apart, share no state inside a window, each fires its own events in
// (at, seq) order, and the flush runs serially in shard-index order.
package eventsim

import (
	"fmt"

	"p2ppool/internal/par"
)

// minSplitEvents is calibrated by BenchmarkShardedEventLoop (DESIGN.md §5).
var minSplitEvents uint64 = 512

// ShardGroup is a set of lockstep engines advancing under a shared
// virtual clock. Create with NewShardGroup.
type ShardGroup struct {
	engines                []*Engine
	workers                int
	now                    Time
	counts                 []uint64 // per-shard scratch for window event counts
	last, minSplit, splits uint64   // last window's events; the count that splits the next; windows split
}

// NewShardGroup returns shards engines, each seeded deterministically
// from seed and the shard index. workers bounds how many shards advance
// concurrently in a busy window (<= 1 means serial execution; the
// results are identical either way).
func NewShardGroup(shards int, seed int64, workers int) *ShardGroup {
	if shards <= 0 {
		panic(fmt.Sprintf("eventsim: shard count %d", shards))
	}
	g := &ShardGroup{
		engines:  make([]*Engine, shards),
		workers:  min(par.Workers(workers), shards),
		counts:   make([]uint64, shards),
		minSplit: minSplitEvents,
	}
	for i := range g.engines {
		// Distinct streams per shard: a large odd stride keeps seeds for
		// different (seed, shard) pairs from colliding across runs.
		g.engines[i] = New(seed + int64(i)*1000003)
	}
	return g
}

// Len returns the number of shards.
func (g *ShardGroup) Len() int { return len(g.engines) }

// Engine returns shard i's engine. Callers may schedule on it freely
// between RunUntil calls and from within that engine's own events; they
// must not touch another shard's engine while a window is running.
func (g *ShardGroup) Engine(i int) *Engine { return g.engines[i] }

// Now returns the group clock: the last window barrier reached.
func (g *ShardGroup) Now() Time { return g.now }

// Processed returns the total events executed across shards, summed in
// shard order.
func (g *ShardGroup) Processed() uint64 {
	var n uint64
	for _, e := range g.engines {
		n += e.Processed()
	}
	return n
}

// RunUntil advances all shards to deadline in lockstep windows of the
// given size (the caller's lookahead). Within a window the engines run
// independently; at each barrier flush (may be nil) is invoked once,
// single-threaded, with the barrier time — the partitioning layer
// delivers buffered cross-shard messages there by scheduling them on
// target engines at their arrival times (>= the barrier, or causality
// would break). It returns the number of events executed.
func (g *ShardGroup) RunUntil(deadline, window Time, flush func(limit Time)) uint64 {
	if window <= 0 {
		panic(fmt.Sprintf("eventsim: window %v", window))
	}
	if deadline < g.now {
		panic(fmt.Sprintf("eventsim: deadline %v before group clock %v", deadline, g.now))
	}
	var total uint64
	for g.now < deadline {
		limit := g.now + window
		if limit > deadline {
			limit = deadline
		}
		if g.last < g.minSplit || g.workers == 1 {
			for i, e := range g.engines {
				g.counts[i] = e.RunUntil(limit)
			}
		} else {
			g.splits++
			par.ForEach(g.workers, len(g.engines), func(i int) {
				g.counts[i] = g.engines[i].RunUntil(limit)
			})
		}
		g.last = 0
		for _, c := range g.counts {
			g.last += c
		}
		total += g.last
		g.now = limit
		if flush != nil {
			flush(limit)
		}
	}
	return total
}
