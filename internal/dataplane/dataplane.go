// Package dataplane pumps sequenced, bandwidth-constrained media chunks
// down planned ALM trees. Everything below it is control plane — trees
// are planned, repaired and audited but carry no traffic; this package
// makes delivery numbers mean bytes.
//
// The model is HLS-segment-style streaming: the source emits one
// fixed-duration chunk per chunk interval at a fixed bitrate rung, and
// every chunk must reach every member within a playout deadline of its
// emission. Chunks travel the session's planned tree (re-read live on
// every forward, so scheduler repairs and replans swap the routing
// under a running stream), with transmission time charged against the
// sender's uplink and the receiver's downlink by the Contention model.
// Receivers that miss a chunk on the tree path fall back to mesh-pull:
// each member holds a small seeded neighbor set and asks one neighbor
// per retry round until the chunk arrives or the deadline passes. Pulls
// start late in the playout window (not right after emission — a chunk
// still descending the tree must not be pulled redundantly) and a sent
// pull suppresses re-asks for a timeout, so mesh recovery cannot
// congestion-collapse the uplinks the tree is using.
//
// Contention is the last-hop-bottleneck model the rest of the repo
// uses: a transfer's rate is fixed at admission as
//
//	min(up(src)/(1+active up), down(dst)/(1+active down))
//
// — fair share of each access link among the transfers concurrently
// holding it, approximated at admission time rather than re-divided on
// every arrival/departure. The approximation keeps every transfer a
// single scheduled event; under the chunk-sized transfers this package
// issues it errs toward congestion (an early-finishing transfer's share
// is not returned mid-flight), never toward free capacity. Chunk bytes
// are charged here, so the wire messages themselves ship with a small
// header size — the transport's own per-pair serialization models
// packet dispersion, not bulk transfer, and charging both would count
// the chunk twice.
package dataplane

import (
	"fmt"
	"math/rand"
	"sort"

	"p2ppool/internal/alm"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/obs"
	"p2ppool/internal/transport"
)

// headerBytes is the wire size of a chunk message; the chunk payload's
// bytes are charged through Contention (see the package comment).
const headerBytes = 64

// chunkMsg carries one chunk (or a pulled copy of it).
type chunkMsg struct {
	Key    int // pump key (session ID)
	Seq    int
	From   int
	Pulled bool
}

// pullMsg asks a mesh neighbor for a chunk the tree path missed.
type pullMsg struct {
	Key  int
	Seq  int
	From int
}

// Contention serializes concurrent chunk transfers over each host's
// access link. Capacities are kbps (== bits per virtual ms).
type Contention struct {
	net        transport.Network
	up, down   []float64
	upActive   []int
	downActive []int
	free       []*completion // spent completions, reused by Transfer
}

// NewContention builds the access-link contention model over per-host
// uplink/downlink capacities (typically netmodel ground truth — the
// physics; planning uses the Section 4.2 estimates).
func NewContention(net transport.Network, up, down []float64) *Contention {
	return &Contention{
		net:        net,
		up:         up,
		down:       down,
		upActive:   make([]int, len(up)),
		downActive: make([]int, len(up)),
	}
}

// Transfer ships sizeBytes from src to dst at the fair-share rate fixed
// at admission, then hands the message to the underlying network (which
// adds propagation latency and applies any fault rules).
func (c *Contention) Transfer(src, dst, sizeBytes int, msg transport.Message) {
	rate := c.up[src] / float64(c.upActive[src]+1)
	if r := c.down[dst] / float64(c.downActive[dst]+1); r < rate {
		rate = r
	}
	if rate <= 0 {
		return // zero-capacity endpoint: the transfer never completes
	}
	c.upActive[src]++
	c.downActive[dst]++
	tx := eventsim.Time(float64(sizeBytes*8) / rate)
	rs, ok := c.net.(transport.RunnerScheduler)
	if !ok {
		c.net.After(tx, func() { c.complete(src, dst, msg) })
		return
	}
	var d *completion
	if n := len(c.free); n > 0 {
		d, c.free = c.free[n-1], c.free[:n-1]
	} else {
		d = new(completion)
	}
	*d = completion{c: c, src: src, dst: dst, msg: msg}
	rs.CallAfter(tx, d)
}

// complete releases a finished transfer's share of both access links and
// sends its message.
func (c *Contention) complete(src, dst int, msg transport.Message) {
	c.upActive[src]--
	c.downActive[dst]--
	c.net.Send(transport.Addr(src), transport.Addr(dst), headerBytes, msg)
}

// completion is a transfer's end as a reusable eventsim.Runner: on
// networks implementing transport.RunnerScheduler it replaces the timer,
// closure and discarded cancel func net.After costs per transfer. Both
// paths schedule one event at the same instant, so the event sequence
// is identical.
type completion struct {
	c        *Contention
	src, dst int
	msg      transport.Message
}

// RunEvent implements eventsim.Runner.
func (d *completion) RunEvent() {
	c, src, dst, msg := d.c, d.src, d.dst, d.msg
	*d = completion{}
	c.free = append(c.free, d)
	c.complete(src, dst, msg)
}

// Plane owns the data-plane side of the transport for a host
// population: it attaches one dispatch handler per host and routes
// chunk/pull messages to the per-session pumps. Hosts in streaming
// studies run no DHT, so the plane is the sole transport consumer.
type Plane struct {
	net  transport.Network
	cont *Contention

	pumps map[int]*Pump

	// Plane-wide counts over every pump: chunk transfers started, first
	// receipts at any host, and those first receipts that came by pull
	// to a due member within its deadline.
	chunksSent, chunksDelivered, pullRecovered uint64

	// Observability handle (nil-safe; zero observer effect).
	hLatency *obs.Histogram
}

// NewPlane builds a data plane over the network and per-host
// capacities.
func NewPlane(net transport.Network, up, down []float64) *Plane {
	return &Plane{
		net:   net,
		cont:  NewContention(net, up, down),
		pumps: make(map[int]*Pump),
	}
}

// Instrument wires the plane to an observability registry. reg may be
// nil; recording never schedules events or draws randomness, so an
// instrumented run is event-identical to a bare one.
func (pl *Plane) Instrument(reg *obs.Registry) {
	reg.Counter("dataplane.chunks_sent", func() uint64 { return pl.chunksSent })
	reg.Counter("dataplane.chunks_delivered", func() uint64 { return pl.chunksDelivered })
	reg.Counter("dataplane.pull_recovered", func() uint64 { return pl.pullRecovered })
	reg.Counter("dataplane.duplicates", pl.pumpTotal(func(st Stats) int { return st.Duplicates }))
	reg.Counter("dataplane.pulls_sent", pl.pumpTotal(func(st Stats) int { return st.PullsSent }))
	pl.hLatency = reg.Histogram("dataplane.delivery_ms", obs.DefaultLatencyBounds)
}

// pumpTotal reads one count of Stats summed over the plane's pumps.
func (pl *Plane) pumpTotal(count func(Stats) int) func() uint64 {
	return func() uint64 {
		n := 0
		for _, p := range pl.pumps {
			n += count(p.stats)
		}
		return uint64(n)
	}
}

// Attach registers the plane's dispatch handler for hosts 0..n-1. Call
// once, before starting pumps.
func (pl *Plane) Attach(n int) {
	for h := 0; h < n; h++ {
		h := h
		pl.net.Attach(transport.Addr(h), func(from transport.Addr, msg transport.Message) {
			switch m := msg.(type) {
			case chunkMsg:
				if p := pl.pumps[m.Key]; p != nil {
					p.onChunk(h, m)
				}
			case pullMsg:
				if p := pl.pumps[m.Key]; p != nil {
					p.onPull(h, m)
				}
			}
		})
	}
}

// TreeFunc returns the session's current routing tree, or nil while the
// session has no plan. Pumps re-read it on every forward, which is how
// scheduler repairs and replans swap a live stream's topology.
type TreeFunc func() *alm.Tree

// Config tunes one pump (one session's stream).
type Config struct {
	// ChunkDur is the chunk duration (default 1 s): chunk seq s is
	// emitted at start + s*ChunkDur.
	ChunkDur eventsim.Time
	// BitrateKbps is the ladder rung; chunk payload is
	// BitrateKbps * ChunkDur / 8 bytes.
	BitrateKbps float64
	// Playout is the per-chunk deadline after emission (a live session
	// runs ~3 s of client buffer, VoD can run much more). Default
	// playoutPerChunk chunks (3 s at the default chunk).
	Playout eventsim.Time
	// Chunks is how many chunks the source emits (required).
	Chunks int
	// PullNeighbors is each member's seeded mesh-neighbor count
	// (default 0: tree only, no mesh-pull).
	PullNeighbors int
	// Seed draws the mesh neighbor sets (pre-drawn at StartPump; the
	// running pump draws no randomness).
	Seed int64
}

// The derived timings: the playout default and the mesh-pull timings
// are fixed ratios of the chunk and playout timescales, so a harness
// that lengthens chunks gets every window lengthened with them.
const (
	// A playout buffer is a number of chunks: under a fixed window a
	// longer chunk would be late before its first-hop transfer ends.
	playoutPerChunk = 3
	// A member missing a chunk first pulls at 3/5 of the playout window:
	// late enough that a chunk still descending the tree under load is
	// not pulled redundantly, early enough to leave the rest of the
	// window for recovery.
	pullStartPerPlayoutNum, pullStartPerPlayoutDen = 3, 5
	// The pull rotation moves on every half chunk.
	pullRetryPerChunk = 0.5
	// A sent pull suppresses re-asks for the same chunk this long, the
	// window in which the answering neighbour's transfer is presumed in
	// flight; without it every retry re-asks while a response is being
	// shipped, and the duplicates congest the uplinks the tree needs
	// (pull-storm congestion collapse).
	pullTimeoutPerChunk = 2
)

func (c Config) withDefaults() Config {
	if c.ChunkDur <= 0 {
		c.ChunkDur = eventsim.Second
	}
	if c.Playout <= 0 {
		c.Playout = playoutPerChunk * c.ChunkDur
	}
	if c.PullNeighbors < 0 {
		c.PullNeighbors = 0
	}
	return c
}

// pullTimings returns how long after emission a missing chunk is first
// pulled, the retry interval, and how long a sent pull suppresses
// re-asks.
func (c Config) pullTimings() (start, retry, timeout eventsim.Time) {
	return c.Playout * pullStartPerPlayoutNum / pullStartPerPlayoutDen,
		c.ChunkDur * pullRetryPerChunk, pullTimeoutPerChunk * c.ChunkDur
}

// chunkState is one (host, chunk) receipt record.
type chunkState struct {
	arrived  bool
	at       eventsim.Time
	viaPull  bool
	expected bool // member was alive at emission: counts toward outcomes
	pullSent bool // a pull for this chunk has been issued at lastPull
	lastPull eventsim.Time
}

// hostState is a pump's per-host receipt ledger (members and helpers).
type hostState struct {
	got     []chunkState
	member  bool
	nbrs    []int // mesh neighbors (members only)
	nextNbr int   // rotation cursor
}

// Stats is a pump's cumulative outcome accounting. Every expected
// (member, chunk) pair lands in exactly one of OnTimeTree,
// PullRecovered, Late or Lost; the last three partition TreeMisses, so
// the miss attribution always sums to 100%.
type Stats struct {
	// Expected counts (member, chunk) pairs due: the member was alive
	// at the chunk's emission.
	Expected int
	// OnTimeTree: arrived on the tree path within the playout deadline.
	OnTimeTree int
	// PullRecovered: missed on the tree path but recovered by mesh-pull
	// within the deadline.
	PullRecovered int
	// Late: arrived (either path) after the deadline.
	Late int
	// Lost: never arrived.
	Lost int
	// TreeMisses = PullRecovered + Late + Lost.
	TreeMisses int
	// Duplicates counts redundant receipts (tree copy after a pull won
	// the race, or vice versa).
	Duplicates int
	// PullsSent counts pull requests issued.
	PullsSent int
	// SourceTxBytes / TotalTxBytes are the session's transfer bytes
	// charged at the source vs everywhere; the source-offload ratio is
	// 1 - SourceTxBytes/TotalTxBytes.
	SourceTxBytes uint64
	TotalTxBytes  uint64
}

// OnTimeFraction is delivered-on-time over expected (1 when nothing was
// expected).
func (s Stats) OnTimeFraction() float64 {
	if s.Expected == 0 {
		return 1
	}
	return float64(s.OnTimeTree+s.PullRecovered) / float64(s.Expected)
}

// SourceOffload is the fraction of session transfer bytes the source
// did not send itself (0 when nothing was sent).
func (s Stats) SourceOffload() float64 {
	if s.TotalTxBytes == 0 {
		return 0
	}
	return 1 - float64(s.SourceTxBytes)/float64(s.TotalTxBytes)
}

// Pump streams one session: clocked chunk emission at the root, tree
// forwarding with live routing, mesh-pull recovery, and per-(member,
// chunk) outcome accounting.
type Pump struct {
	plane *Plane
	key   int
	root  int
	tree  TreeFunc
	alive func(host int) bool
	cfg   Config

	members    []int
	chunkBytes int
	start      eventsim.Time
	hosts      map[int]*hostState

	// The mesh-pull timings, computed once from cfg (Config.pullTimings).
	pullStart, pullRetry, pullTimeout eventsim.Time

	stats Stats
}

// StartPump registers and starts a pump for session key rooted at root:
// chunk 0 is emitted at virtual time at (not in the past), chunk s at
// at + s*ChunkDur, each emission arming the next. members excludes the
// root; tree supplies the live routing; alive reports host liveness
// (nil means always alive) and gates both outcome expectations and pull
// attempts. The key must not already be pumping.
func (pl *Plane) StartPump(key, root int, members []int, tree TreeFunc, alive func(int) bool, at eventsim.Time, cfg Config) (*Pump, error) {
	if _, ok := pl.pumps[key]; ok {
		return nil, fmt.Errorf("dataplane: session %d already pumping", key)
	}
	cfg = cfg.withDefaults()
	if cfg.Chunks <= 0 {
		return nil, fmt.Errorf("dataplane: session %d: Chunks must be positive", key)
	}
	if cfg.BitrateKbps <= 0 {
		return nil, fmt.Errorf("dataplane: session %d: BitrateKbps must be positive", key)
	}
	if at < pl.net.Now() {
		return nil, fmt.Errorf("dataplane: session %d: first emission %v in the past", key, at)
	}
	if alive == nil {
		alive = func(int) bool { return true }
	}
	p := &Pump{
		plane:      pl,
		key:        key,
		root:       root,
		tree:       tree,
		alive:      alive,
		cfg:        cfg,
		members:    append([]int(nil), members...),
		chunkBytes: int(cfg.BitrateKbps * float64(cfg.ChunkDur) / 8),
		start:      at,
		hosts:      make(map[int]*hostState),
	}
	p.pullStart, p.pullRetry, p.pullTimeout = cfg.pullTimings()
	// Seed the mesh: every member gets PullNeighbors distinct fellow
	// members, pre-drawn so the running pump draws no randomness.
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, m := range p.members {
		hs := p.host(m)
		hs.member = true
		k := cfg.PullNeighbors
		if k > len(p.members)-1 {
			k = len(p.members) - 1
		}
		seen := map[int]bool{m: true}
		for len(hs.nbrs) < k {
			n := p.members[rng.Intn(len(p.members))]
			if !seen[n] {
				seen[n] = true
				hs.nbrs = append(hs.nbrs, n)
			}
		}
	}
	pl.pumps[key] = p
	pl.net.After(at-pl.net.Now(), func() { p.emit(0) })
	return p, nil
}

// host returns (creating) h's receipt ledger.
func (p *Pump) host(h int) *hostState {
	hs := p.hosts[h]
	if hs == nil {
		hs = &hostState{got: make([]chunkState, p.cfg.Chunks)}
		p.hosts[h] = hs
	}
	return hs
}

// emit clocks chunk s at the source: arm the next emission (a dead
// source keeps its clock), snapshot which members are due (alive now —
// one that crashes later still counts, its miss is the stream's), mark
// the root as having the chunk, arm the pull rounds, push to the tree.
func (p *Pump) emit(s int) {
	now := p.plane.net.Now()
	if s+1 < p.cfg.Chunks {
		p.plane.net.After(p.start+eventsim.Time(s+1)*p.cfg.ChunkDur-now, func() { p.emit(s + 1) })
	}
	if !p.alive(p.root) {
		return // a dead source emits nothing; nothing becomes due
	}
	p.host(p.root).got[s] = chunkState{arrived: true, at: now}
	due := make([]int, 0, len(p.members))
	for _, m := range p.members {
		if m == p.root || !p.alive(m) {
			continue
		}
		hs := p.host(m)
		hs.got[s].expected = true
		p.stats.Expected++
		if len(hs.nbrs) > 0 {
			due = append(due, m)
		}
	}
	p.armPull(s, due, p.pullStart)
	p.forward(p.root, s)
}

// forward relays chunk s from h to h's children in the current tree.
// The tree is re-read on every call: a repair or replan between two
// chunks (or two hops) reroutes the stream immediately.
func (p *Pump) forward(h, s int) {
	tr := p.tree()
	if tr == nil || !tr.Contains(h) {
		return
	}
	for _, c := range tr.Children(h) {
		if p.host(c).got[s].arrived {
			continue
		}
		p.sendChunk(h, c, chunkMsg{Key: p.key, Seq: s, From: h, Pulled: false})
	}
}

// sendChunk charges one chunk transfer to the contention model and the
// session's byte ledger.
func (p *Pump) sendChunk(from, to int, m chunkMsg) {
	p.stats.TotalTxBytes += uint64(p.chunkBytes)
	if from == p.root {
		p.stats.SourceTxBytes += uint64(p.chunkBytes)
	}
	p.plane.chunksSent++
	p.plane.cont.Transfer(from, to, p.chunkBytes, m)
}

// onChunk records a chunk arrival at h and relays it down the live
// tree. The first copy wins; later copies (tree vs pull race) count as
// duplicates.
func (p *Pump) onChunk(h int, m chunkMsg) {
	hs := p.host(h)
	st := &hs.got[m.Seq]
	if st.arrived {
		p.stats.Duplicates++
		return
	}
	now := p.plane.net.Now()
	st.arrived = true
	st.at = now
	st.viaPull = m.Pulled
	p.plane.chunksDelivered++
	emit := p.start + eventsim.Time(m.Seq)*p.cfg.ChunkDur
	p.plane.hLatency.Observe(float64(now - emit))
	if m.Pulled && st.expected && now <= emit+p.cfg.Playout {
		p.plane.pullRecovered++
	}
	p.forward(h, m.Seq)
}

// armPull arms chunk s's next pull round, delay after its emission,
// for the members in due; rounds stop at the playout deadline. A round
// is one event: per-member timers armed back to back for one instant
// fire back to back, so walking due in order is the same schedule.
func (p *Pump) armPull(s int, due []int, delay eventsim.Time) {
	emit := p.start + eventsim.Time(s)*p.cfg.ChunkDur
	fire := emit + delay
	if len(due) == 0 || fire > emit+p.cfg.Playout {
		return // past the deadline a pull could no longer save the chunk
	}
	p.plane.net.After(fire-p.plane.net.Now(), func() { p.pullRound(s, due, delay) })
}

// pullRound has each member of due still missing chunk s ask its next
// mesh neighbor in rotation, then re-arms for those members. A crashed
// member skips the round but keeps its place (it may restart inside a
// long VoD window); a crashed or chunk-less neighbor never answers and
// the rotation moves on. A pull sent within the last pullTimeout
// suppresses this round's send — the response may still be in flight,
// and re-asking would spend mesh uplink shipping duplicates.
func (p *Pump) pullRound(s int, due []int, delay eventsim.Time) {
	now := p.plane.net.Now()
	missing := due[:0]
	for _, m := range due {
		hs := p.host(m)
		st := &hs.got[s]
		if st.arrived {
			continue
		}
		missing = append(missing, m)
		if p.alive(m) && (!st.pullSent || now-st.lastPull >= p.pullTimeout) {
			n := hs.nbrs[hs.nextNbr%len(hs.nbrs)]
			hs.nextNbr++
			st.pullSent = true
			st.lastPull = now
			p.stats.PullsSent++
			p.plane.net.Send(transport.Addr(m), transport.Addr(n), headerBytes, pullMsg{Key: p.key, Seq: s, From: m})
		}
	}
	p.armPull(s, missing, delay+p.pullRetry)
}

// onPull answers a mesh-pull request at host h: if h has the chunk (and
// is alive — a crashed holder's reply is the fault layer's to drop), it
// ships a pulled copy under the same contention model.
func (p *Pump) onPull(h int, m pullMsg) {
	if !p.host(h).got[m.Seq].arrived {
		return
	}
	if p.host(m.From).got[m.Seq].arrived {
		return // requester's copy arrived while the request was in flight
	}
	p.sendChunk(h, m.From, chunkMsg{Key: p.key, Seq: m.Seq, From: h, Pulled: true})
}

// Finalize classifies every expected (member, chunk) pair into the
// outcome partition and freezes Stats. Call it after the last chunk's
// deadline has passed (plus transfer drain); arrivals recorded later
// would land in a frozen ledger.
func (p *Pump) Finalize() Stats {
	p.stats.OnTimeTree = 0
	p.stats.PullRecovered = 0
	p.stats.Late = 0
	p.stats.Lost = 0
	hosts := make([]int, 0, len(p.hosts))
	for h := range p.hosts {
		hosts = append(hosts, h)
	}
	sort.Ints(hosts)
	for _, h := range hosts {
		hs := p.hosts[h]
		if !hs.member {
			continue
		}
		for s := range hs.got {
			st := hs.got[s]
			if !st.expected {
				continue
			}
			deadline := p.start + eventsim.Time(s)*p.cfg.ChunkDur + p.cfg.Playout
			switch {
			case st.arrived && st.at <= deadline && !st.viaPull:
				p.stats.OnTimeTree++
			case st.arrived && st.at <= deadline:
				p.stats.PullRecovered++
			case st.arrived:
				p.stats.Late++
			default:
				p.stats.Lost++
			}
		}
	}
	p.stats.TreeMisses = p.stats.PullRecovered + p.stats.Late + p.stats.Lost
	return p.stats
}

// CapacityBound is the data-driven streaming capacity upper bound of
// Chakareski et al. ("A note on the data-driven capacity of P2P
// networks") for a single-source session with receiver uplinks ups:
//
//	r* = min(upSource, (upSource + sum ups) / n)
//
// with n receivers. It assumes the session is on its own — helpers
// recruited from the surrounding resource pool add uplink the bound
// does not know about, so delivered bitrate above the bound measures
// exactly the pool's contribution.
func CapacityBound(upSource float64, ups []float64) float64 {
	if len(ups) == 0 {
		return upSource
	}
	total := upSource
	for _, u := range ups {
		total += u
	}
	r := total / float64(len(ups))
	if upSource < r {
		r = upSource
	}
	return r
}
