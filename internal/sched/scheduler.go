package sched

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"p2ppool/internal/alm"
	"p2ppool/internal/obs"
)

// Session is one ALM task competing in the pool.
type Session struct {
	ID       SessionID
	Priority int // market priority: 1 (highest) .. 3 (lowest)
	Root     int
	Members  []int // excluding Root

	// Sources lists members that are additional multicast sources
	// (conferencing): each gets its own tree rooted at itself, and all
	// of the session's trees draw on one shared per-host slot budget.
	// The Root is always a source and must not be listed here; every
	// entry must be a current member. Empty means single-source. Once
	// admitted, the scheduler owns this slice (and Members), edits it in
	// place and keeps it ascending: the one source order EachTree walks.
	Sources []int

	// Tree is the current plan for the Root's stream (nil until
	// scheduled). Single-source code paths keep reading this field.
	Tree *alm.Tree
	// SrcTrees holds the current plan for each extra source in Sources
	// (nil map for single-source sessions).
	SrcTrees map[int]*alm.Tree
	// Replans counts how many times this session had to reschedule.
	Replans int

	// held lists the hosts reservations were granted on since the last
	// release, which drops the session on exactly these hosts. An entry
	// may be stale (repeated, or since preempted or killed there); it
	// costs one drop that finds nothing.
	held []int
	// away lists the members a failure stripped, in strip order, until
	// Rejoin takes them back.
	away []awayMember
	// dirty marks the session for replan at the next Stabilize or Tick.
	dirty bool
	// ctl is the admission service's record of the session, from Submit
	// until it ends; a Scheduler used alone leaves it zero.
	ctl sessionState
}

// Held calls yield with each host s's reservations were granted on
// since its last release, in grant order, until yield returns false:
// the list its root releases through. An entry may repeat, or name a
// host where s no longer holds anything (preempted or killed there
// since). It reads the list in place.
func (s *Session) Held(yield func(host int) bool) {
	for _, h := range s.held {
		if !yield(h) {
			return
		}
	}
}

// awayMember is one member a failure stripped, and whether it was an
// extra source.
type awayMember struct {
	host   int
	source bool
}

// SourceTree pairs a source with its tree (the per-(session, source)
// grain the registry accounts at).
type SourceTree struct {
	Source int
	Tree   *alm.Tree
}

// memberSet returns the session's member set including the root.
func (s *Session) memberSet() map[int]bool {
	m := make(map[int]bool, len(s.Members)+1)
	m[s.Root] = true
	for _, v := range s.Members {
		m[v] = true
	}
	return m
}

// roster returns the root and members in declaration order.
func (s *Session) roster() []int {
	return append([]int{s.Root}, s.Members...)
}

// SourceList returns every source in EachTree order: the Root first,
// then the extra sources ascending.
func (s *Session) SourceList() []int {
	return append([]int{s.Root}, s.Sources...)
}

// IsSource reports whether host originates a stream in this session.
func (s *Session) IsSource(host int) bool {
	if host == s.Root {
		return true
	}
	for _, v := range s.Sources {
		if v == host {
			return true
		}
	}
	return false
}

// TreeFor returns the current tree rooted at src (nil when src is not a
// source or not yet planned). The data plane reads per-source routing
// through this: re-reading picks up repairs and replans live.
func (s *Session) TreeFor(src int) *alm.Tree {
	if src == s.Root {
		return s.Tree
	}
	return s.SrcTrees[src]
}

// EachTree calls yield with each source and its current tree, the
// Root's first and then each extra source's in Sources order, until
// yield returns false. A tree is nil while unplanned. It reads the
// session in place; Trees is the collected copy.
func (s *Session) EachTree(yield func(src int, t *alm.Tree) bool) {
	if !yield(s.Root, s.Tree) {
		return
	}
	for _, src := range s.Sources {
		if !yield(src, s.SrcTrees[src]) {
			return
		}
	}
}

// Trees returns all (source, tree) pairs in EachTree order. Trees may
// be nil for sessions not yet planned.
func (s *Session) Trees() []SourceTree {
	out := make([]SourceTree, 0, len(s.Sources)+1)
	s.EachTree(func(src int, t *alm.Tree) bool {
		out = append(out, SourceTree{Source: src, Tree: t})
		return true
	})
	return out
}

// HelperCount returns how many distinct non-member nodes the current
// plan uses across all source trees.
func (s *Session) HelperCount() int {
	members := s.memberSet()
	seen := make(map[int]bool)
	s.EachTree(func(_ int, t *alm.Tree) bool {
		if t != nil {
			t.EachNode(func(v int) bool {
				if !members[v] {
					seen[v] = true
				}
				return true
			})
		}
		return true
	})
	return len(seen)
}

// helperRadius is R, in milliseconds, for the critical-node heuristic.
const helperRadius = 100

// Config tunes the scheduler.
type Config struct {
	// HelperMinDegree is the minimum spare fan-out for a helper.
	HelperMinDegree int
	// ScoreLatency, when set, is the knowledge used for helper
	// vicinity judgment (the paper's Leafset mode: coordinate
	// estimates). Tree links themselves always use the scheduler's
	// latency function — a session measures the nodes it contacts.
	ScoreLatency alm.LatencyFunc
	// MetricScore declares the vicinity-judgment latency to be a metric,
	// enabling the planner's indexed helper search (see
	// alm.HelperSet.MetricScore). Pool-built schedulers set it.
	MetricScore bool
}

func (c Config) withDefaults() Config {
	if c.HelperMinDegree <= 0 {
		c.HelperMinDegree = alm.DefaultMinDegree
	}
	return c
}

// Totals are the scheduler's cumulative counters; harnesses read them
// without instrumenting, and Instrument registers readers of them.
type Totals struct {
	Plans          int
	Replans        int
	Preemptions    int
	Repairs        int
	NodeFailures   int
	NodeRecoveries int
}

// Scheduler coordinates sessions over a shared registry. It is "market
// driven": there is no global optimization — each session greedily
// plans for itself with whatever the degree tables say is obtainable at
// its priority, and preempted sessions replan.
type Scheduler struct {
	cfg Config
	reg *Registry
	tot Totals

	// lat is the measured latency used for tree links and adjustment;
	// cfg.ScoreLatency (if set) supplies the estimate-based vicinity
	// judgment for helper candidates.
	lat alm.LatencyFunc

	sessions map[SessionID]*Session

	// mark[h] == epoch exactly when h is on the roster last passed to
	// markMembers: membership is one array read, a new roster one increment.
	mark  []uint32
	epoch uint32
	// candidates and recruited are planOne's helper-candidate and
	// recruited-helper buffers, and nodes treeNodes's, reused across plans
	// (the planner copies what it keeps).
	candidates []int
	recruited  []int
	nodes      []int

	// guard and onPreempt are the damping a Service installs once
	// (NewService), under every plan and repair whichever call runs it;
	// a Scheduler used alone keeps both nil, the plain market rule. guard
	// can veto a market-priority preemption (never a member-priority one:
	// the paper's node serving its own session outranks any damping);
	// onPreempt hears of each displaced session per host, with the
	// priority the requester reserved at.
	guard     PreemptGuard
	onPreempt func(victim SessionID, atPriority int)
}

// NewScheduler creates a scheduler over hosts with the given degree
// bounds. lat is the measured latency (tree links and adjustment);
// set cfg.ScoreLatency to a coordinate predictor for the paper's
// practical Leafset configuration.
func NewScheduler(bounds []int, lat alm.LatencyFunc, cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	return &Scheduler{
		cfg:      cfg,
		reg:      newRegistry(bounds, cfg.HelperMinDegree),
		lat:      lat,
		sessions: make(map[SessionID]*Session),
		mark:     make([]uint32, len(bounds)),
	}
}

// nextEpoch unmarks every host in O(1).
func (sc *Scheduler) nextEpoch() {
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale marks could alias the new epoch
		clear(sc.mark)
		sc.epoch = 1
	}
}

// markMembers makes s's roster the one isMember answers for, until the
// next call.
func (sc *Scheduler) markMembers(s *Session) {
	sc.nextEpoch()
	sc.mark[s.Root] = sc.epoch
	for _, m := range s.Members {
		sc.mark[m] = sc.epoch
	}
}

// checkRoster is the one roster check behind Service.Submit, AddSession
// and AddMember: every host of s's roster is in the pool, none is named
// twice (a repeated member, or the root listed as a member), and every
// extra source is a member other than the root, listed once. Admitted,
// such a roster would panic a plan or fail every one. With live set no
// host of it has failed either, which would fail every plan; Submit
// passes false, stripping a failed member and rejecting a failed root.
func (sc *Scheduler) checkRoster(s *Session, live bool) error {
	sc.nextEpoch()
	for i := -1; i < len(s.Members); i++ {
		h := s.Root
		if i >= 0 {
			h = s.Members[i]
		}
		if h < 0 || h >= len(sc.mark) {
			return fmt.Errorf("sched: session %d names host %d outside the pool's %d", s.ID, h, len(sc.mark))
		}
		if sc.mark[h] == sc.epoch {
			return fmt.Errorf("sched: session %d names host %d twice", s.ID, h)
		}
		if live && sc.reg.Dead(h) {
			return fmt.Errorf("sched: session %d names failed host %d", s.ID, h)
		}
		sc.mark[h] = sc.epoch
	}
	for i, src := range s.Sources {
		switch {
		case src == s.Root:
			return fmt.Errorf("sched: session %d lists root %d as an extra source", s.ID, src)
		case src < 0 || src >= len(sc.mark) || sc.mark[src] != sc.epoch:
			return fmt.Errorf("sched: session %d source %d is not a member", s.ID, src)
		case slices.Contains(s.Sources[:i], src):
			return fmt.Errorf("sched: session %d duplicate source %d", s.ID, src)
		}
	}
	return nil
}

func (sc *Scheduler) isMember(host int) bool { return sc.mark[host] == sc.epoch }

// effPriority is the marked session s's priority at a given node, and
// the guard that applies there: members serve their own session above
// everything else, and member-priority requests are never guarded (see
// Scheduler.guard).
func (sc *Scheduler) effPriority(s *Session, host int) (int, PreemptGuard) {
	if sc.isMember(host) {
		return MemberPriority, nil
	}
	return s.Priority, sc.guard
}

// byPriorityThenID orders sessions highest priority first, then by ID —
// the order every planning and failure sweep processes them in.
func byPriorityThenID(ss []*Session) {
	slices.SortFunc(ss, func(a, b *Session) int {
		return cmp.Or(cmp.Compare(a.Priority, b.Priority), cmp.Compare(a.ID, b.ID))
	})
}

// Registry exposes the degree tables (tests and reporting).
func (sc *Scheduler) Registry() *Registry { return sc.reg }

// Totals returns the cumulative plan/replan/preemption counters.
func (sc *Scheduler) Totals() Totals { return sc.tot }

// Instrument wires the scheduler to an observability registry: plan,
// replan, preemption and in-place-repair counters plus gauges of the
// live session count and the tree shape (worst height across sessions,
// widest fan-out). Each reads the scheduler's own state when a snapshot
// is taken, so a gauge gives the state at that moment and the
// scheduling path does no extra work. reg may be nil; instrumentation
// never alters scheduling decisions.
func (sc *Scheduler) Instrument(reg *obs.Registry) {
	reg.Counter("sched.plans", func() uint64 { return uint64(sc.tot.Plans) })
	reg.Counter("sched.replans", func() uint64 { return uint64(sc.tot.Replans) })
	reg.Counter("sched.preemptions", func() uint64 { return uint64(sc.tot.Preemptions) })
	reg.Counter("sched.repairs_inplace", func() uint64 { return uint64(sc.tot.Repairs) })
	reg.Counter("sched.node_failures", func() uint64 { return uint64(sc.tot.NodeFailures) })
	reg.Counter("sched.node_recoveries", func() uint64 { return uint64(sc.tot.NodeRecoveries) })
	reg.Gauge("sched.sessions", func() float64 { return float64(len(sc.sessions)) })
	reg.Gauge("sched.max_tree_height_ms", func() float64 { h, _ := sc.treeShape(); return h })
	reg.Gauge("sched.max_tree_degree", func() float64 { _, d := sc.treeShape(); return float64(d) })
}

// treeShape is the largest height and the largest node degree over
// every live session's trees.
func (sc *Scheduler) treeShape() (height float64, degree int) {
	for _, s := range sc.sessions {
		s.EachTree(func(_ int, t *alm.Tree) bool {
			if t != nil {
				height = max(height, t.MaxHeight(sc.lat))
				t.EachNode(func(v int) bool { degree = max(degree, t.Degree(v)); return true })
			}
			return true
		})
	}
	return height, degree
}

// Sessions returns the active sessions sorted by ID.
func (sc *Scheduler) Sessions() []*Session {
	out := make([]*Session, 0, len(sc.sessions))
	for _, s := range sc.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// EachSession calls yield with every live session, in no particular
// order, until yield returns false. It reads the session table in
// place; Sessions is the sorted copy.
func (sc *Scheduler) EachSession(yield func(*Session) bool) {
	for _, s := range sc.sessions {
		if !yield(s) {
			return
		}
	}
}

// Dirty reports whether session id is marked for replan: what
// DirtySessions lists, asked of one session.
func (sc *Scheduler) Dirty(id SessionID) bool {
	s := sc.sessions[id]
	return s != nil && s.dirty
}

// Session returns the live session with the given ID, or nil when the
// session is not currently planned (queued, shed, or never submitted).
// The data plane reads its routing through this: holding the returned
// pointer and re-reading s.Tree picks up repairs and replans live.
func (sc *Scheduler) Session(id SessionID) *Session { return sc.sessions[id] }

// DirtySessions returns the IDs currently marked for replan, sorted.
// A dirty session's tree and reservations are transiently stale until
// the next Stabilize; the invariant sweeps scope their plan-consistency
// checks with Dirty, one session at a time.
func (sc *Scheduler) DirtySessions() []SessionID {
	var out []SessionID
	for id, s := range sc.sessions {
		if s.dirty {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddSession admits a session (it will be planned on the next
// Stabilize). Its roster must pass checkRoster and name no failed host;
// its Sources are then sorted in place.
func (sc *Scheduler) AddSession(s *Session) error {
	if _, ok := sc.sessions[s.ID]; ok {
		return fmt.Errorf("sched: duplicate session %d", s.ID)
	}
	if s.Priority < 1 {
		return fmt.Errorf("sched: session %d priority %d < 1", s.ID, s.Priority)
	}
	if err := sc.checkRoster(s, true); err != nil {
		return err
	}
	slices.Sort(s.Sources)
	sc.sessions[s.ID] = s
	s.dirty = true
	return nil
}

// RemoveSession ends a session, freeing its reservations. Freed
// resources do not forcibly dirty others; sessions pick them up at
// their periodic reschedule (Reschedule / Stabilize).
func (sc *Scheduler) RemoveSession(id SessionID) {
	s, ok := sc.sessions[id]
	if !ok {
		return
	}
	sc.release(s)
	delete(sc.sessions, id)
}

// Reschedule marks every session dirty — the paper's periodic re-run
// "to examine if a better plan, using recently freed resources, is
// better than the current one".
func (sc *Scheduler) Reschedule() {
	for _, s := range sc.sessions {
		s.dirty = true
	}
}

// AddMember grows a session's member set (the dynamic-membership
// extension the paper sketches in Section 5): the session replans on
// the next Stabilize with the new participant holding member priority.
// A host outside the pool, already on the roster, or failed is refused.
func (sc *Scheduler) AddMember(id SessionID, host int) error {
	s, ok := sc.sessions[id]
	if !ok {
		return fmt.Errorf("sched: unknown session %d", id)
	}
	s.Members = append(s.Members, host)
	if err := sc.checkRoster(s, true); err != nil {
		s.Members = s.Members[:len(s.Members)-1]
		return err
	}
	s.dirty = true
	return nil
}

// RemoveMember shrinks a session's member set; the session replans on
// the next Stabilize. A member that was also a source loses its source
// role (and its tree) with its membership. The leave is voluntary, so
// Rejoin never brings the host back. Removing the root is not allowed
// (end the session instead).
func (sc *Scheduler) RemoveMember(id SessionID, host int) error {
	s, ok := sc.sessions[id]
	if !ok {
		return fmt.Errorf("sched: unknown session %d", id)
	}
	if host == s.Root {
		return fmt.Errorf("sched: cannot remove the root of session %d", id)
	}
	if !s.drop(host) {
		return fmt.Errorf("sched: host %d not in session %d", host, id)
	}
	s.dirty = true
	return nil
}

// drop strips host from s's members, and with its membership its source
// role and tree; it reports whether host was a member. It leaves the
// ledger alone: callers mark the session dirty or replan.
func (s *Session) drop(host int) bool {
	i := slices.Index(s.Members, host)
	if i < 0 {
		return false
	}
	s.Members = append(s.Members[:i], s.Members[i+1:]...)
	if j := slices.Index(s.Sources, host); j >= 0 {
		s.Sources = append(s.Sources[:j], s.Sources[j+1:]...)
		delete(s.SrcTrees, host)
	}
	return true
}

// lose is drop for a member a failure took: the session remembers it in
// away, with its source role, so Rejoin can take it back.
func (s *Session) lose(host int) bool {
	source := slices.Contains(s.Sources, host)
	if !s.drop(host) {
		return false
	}
	s.away = append(s.away, awayMember{host: host, source: source})
	return true
}

// Rejoin takes a recovered host back into every live session a failure
// stripped it from, in ID order: it returns to the members, and to the
// sources if it was one, and the session replans on the next Stabilize.
// It returns those sessions; nil while the registry holds the host dead.
// A session that has the host on its roster again (through AddMember)
// forgets the strip and is not returned.
func (sc *Scheduler) Rejoin(host int) []SessionID {
	if sc.reg.Dead(host) {
		return nil
	}
	var out []SessionID
	for _, s := range sc.Sessions() {
		i := slices.IndexFunc(s.away, func(a awayMember) bool { return a.host == host })
		if i < 0 {
			continue
		}
		a := s.away[i]
		s.away = append(s.away[:i], s.away[i+1:]...)
		if slices.Contains(s.Members, host) {
			continue
		}
		s.Members = append(s.Members, host)
		if a.source {
			j, _ := slices.BinarySearch(s.Sources, host)
			s.Sources = slices.Insert(s.Sources, j, host)
		}
		s.dirty = true
		out = append(out, s.ID)
	}
	return out
}

// Stabilize replans dirty sessions (sweep, every session ready) until
// none is dirty, and returns the number of individual plans executed.
// A failed plan stops it there, leaving that session (holding nothing)
// and the rest of its round dirty. It errors when maxRounds rounds
// leave one dirty.
func (sc *Scheduler) Stabilize() (int, error) {
	plans, capped, err := sc.sweep(func(*Session) bool { return true }, sc.planOne)
	if capped {
		if dirty := sc.DirtySessions(); len(dirty) > 0 {
			return plans, fmt.Errorf("sched: did not stabilize within %d rounds (%d dirty)", maxRounds, len(dirty))
		}
	}
	return plans, err
}

// sweep is the one replanning loop, under Stabilize and Service.Tick.
// Each round plans the dirty sessions ready admits, highest priority
// first, then by ID. A mark clears as its session's plan starts, so one
// displaced earlier in its round plans once, in its turn; one shed
// earlier in the round is skipped. A round that displaced nobody ends
// the sweep: nothing else makes a session dirty and ready (under Tick a
// failed plan backs off past now, a shed's retry 1 ms). capped reports
// that maxRounds ended it; a plan's error ends it, that session dirty.
func (sc *Scheduler) sweep(ready func(*Session) bool, plan func(*Session) error) (plans int, capped bool, err error) {
	for round := 0; round < maxRounds; round++ {
		var batch []*Session
		for _, s := range sc.sessions {
			if s.dirty && ready(s) {
				batch = append(batch, s)
			}
		}
		byPriorityThenID(batch)
		preempted := sc.tot.Preemptions
		for _, s := range batch {
			if sc.sessions[s.ID] != s {
				continue // shed earlier in this round
			}
			s.dirty = false
			if err := plan(s); err != nil {
				s.dirty = true
				return plans, false, fmt.Errorf("session %d: %w", s.ID, err)
			}
			plans++
		}
		if sc.tot.Preemptions == preempted {
			return plans, false, nil
		}
	}
	return plans, true, nil
}

// NodeFailed handles the crash of a host: its registry table is
// voided, sessions rooted there are removed (the multicast source is
// gone), and every session that had the host as a member or in its
// tree loses it — the tree is repaired in place where the survivors'
// spare degree allows, otherwise the session is marked dirty for a
// full replan at the next Stabilize. Each affected surviving session's
// Replans counter is incremented. The affected session IDs (including
// removed ones) are returned in priority-then-ID order. A surviving
// session remembers a member it lost, and Rejoin takes it back.
func (sc *Scheduler) NodeFailed(host int) []SessionID {
	// Failure detection fires from several independent paths (heartbeat
	// loss, partition detection); a host already processed must be a
	// no-op or a session whose in-place repair failed — its stale tree
	// still naming the host — would count a second replan for the same
	// failure.
	if sc.reg.Dead(host) {
		return nil
	}
	sc.tot.NodeFailures++
	sc.reg.SetDead(host)
	order := make([]*Session, 0, len(sc.sessions))
	for _, s := range sc.sessions {
		order = append(order, s)
	}
	byPriorityThenID(order)
	var affected []SessionID
	for _, s := range order {
		if s.Root == host {
			sc.RemoveSession(s.ID)
			affected = append(affected, s.ID)
			continue
		}
		// A dead extra source's own tree dies with it; the host may
		// still sit in the session's other trees, which repair below.
		touched := s.lose(host)
		inTree := false
		s.EachTree(func(_ int, t *alm.Tree) bool { inTree = t != nil && t.Contains(host); return !inTree })
		if !touched && !inTree {
			continue
		}
		affected = append(affected, s.ID)
		s.Replans++
		sc.tot.Replans++
		// One release covers every (session, source) tree — the ledger
		// holds a single merged allocation per (session, priority), so
		// releasing once and re-reserving tree by tree in replant is what
		// keeps a multi-tree repair from double-freeing slots.
		sc.release(s)
		repair := func(src int, t *alm.Tree) (*alm.Tree, error) {
			if t == nil {
				return nil, fmt.Errorf("sched: source %d unplanned", src)
			}
			if t.Contains(host) {
				t = t.Clone()
				if _, err := alm.Repair(t, []int{host}, sc.lat, sc.availFor(s)); err != nil {
					return nil, err
				}
			}
			// Untouched trees still re-reserve: the release above
			// dropped their slots along with everything else.
			return t, nil
		}
		if inTree && sc.replant(s, repair) == nil {
			sc.tot.Repairs++
			continue
		}
		s.dirty = true
	}
	return affected
}

// NodeRecovered marks a host usable again and reports whether the host
// was actually dead. Sessions do not grab it eagerly; they see it at
// their next Reschedule/Stabilize, and the members the failure took
// return through Rejoin. Like NodeFailed, recovery detection
// fires from several independent paths (heartbeat resumption,
// partition heal), so a second fire for the same recovery must be a
// counted-once no-op — the idempotency guard is what keeps the
// recovery counters and any control-plane "capacity returned" hooks
// from double-firing.
func (sc *Scheduler) NodeRecovered(host int) bool {
	if !sc.reg.Dead(host) {
		return false
	}
	sc.reg.Revive(host)
	sc.tot.NodeRecoveries++
	return true
}

// availFor returns the effective degree bound the market offers session
// s at each host, valid until another session is marked.
func (sc *Scheduler) availFor(s *Session) alm.DegreeFunc {
	sc.markMembers(s)
	return func(v int) int {
		p, g := sc.effPriority(s, v)
		return sc.reg.tables[v].available(p, g)
	}
}

// release drops every reservation s holds, on the hosts it lists.
func (sc *Scheduler) release(s *Session) {
	sc.reg.Release(s.ID, s.held)
	s.held = s.held[:0]
}

// treeNodes returns t's nodes in Tree.Nodes order, the root first and
// then the rest ascending, in a buffer valid until the next call.
func (sc *Scheduler) treeNodes(t *alm.Tree) []int {
	nodes := sc.nodes[:0]
	t.EachNode(func(v int) bool { nodes = append(nodes, v); return true })
	slices.Sort(nodes[1:])
	sc.nodes = nodes
	return nodes
}

// reserveTree reserves tree's slots for s, listing each granting host
// in s.held and dirtying (and counting a replan for) every preempted
// session. On error the caller owns cleanup of any partial
// reservations.
func (sc *Scheduler) reserveTree(s *Session, tree *alm.Tree) error {
	sc.markMembers(s)
	nodes := sc.treeNodes(tree)
	s.held = slices.Grow(s.held, len(nodes))
	for _, v := range nodes {
		slots := tree.Degree(v)
		if slots == 0 {
			continue
		}
		p, g := sc.effPriority(s, v)
		victims, err := sc.reg.Reserve(v, slots, p, s.ID, g)
		if err != nil {
			return err
		}
		s.held = append(s.held, v)
		for _, vic := range victims {
			if vic == s.ID {
				continue
			}
			if victim, ok := sc.sessions[vic]; ok {
				victim.Replans++
				sc.tot.Replans++
				sc.tot.Preemptions++
				victim.dirty = true
				if sc.onPreempt != nil {
					sc.onPreempt(vic, p)
				}
			}
		}
	}
	return nil
}

// replant is the only code that changes an admitted session's trees.
// s must hold nothing. It walks s's sources in EachTree order, asks next
// for each one's tree (old is the tree installed now, nil while
// unplanned) and reserves it before asking for the next, so a later tree
// sees availability net of the earlier ones: the registry counts a
// session's own same-priority holdings as firm. On an error it releases
// what it reserved, so sessions handled after s see true availability,
// and leaves s's trees as they were. On success it installs the new
// trees.
func (sc *Scheduler) replant(s *Session, next func(src int, old *alm.Tree) (*alm.Tree, error)) error {
	var buf [4]*alm.Tree // up to four sources' trees stay off the heap
	trees := buf[:0]
	var err error
	s.EachTree(func(src int, old *alm.Tree) bool {
		var t *alm.Tree
		if t, err = next(src, old); err == nil {
			err = sc.reserveTree(s, t)
		}
		trees = append(trees, t)
		return err == nil
	})
	if err != nil {
		sc.release(s)
		return err
	}
	s.Tree = trees[0]
	s.SrcTrees = nil
	if len(s.Sources) > 0 {
		s.SrcTrees = make(map[int]*alm.Tree, len(s.Sources))
		for i, src := range s.Sources {
			s.SrcTrees[src] = trees[i+1]
		}
	}
	return nil
}

// planOne runs one session's task manager: release current holdings,
// read availability from the degree tables, plan Leafset+adjust with
// helpers, and reserve the new plan through replant (preempting lower
// priority). A failed attempt leaves s holding nothing.
//
// Conferencing sessions plan one tree per source against the same slot
// budget, each reserved before the next is planned (replant). Helpers
// are recruited once per session — trees after the first plan against
// the session's already-recruited helper set and only fall back to the
// full candidate pool when that set cannot cover the members.
func (sc *Scheduler) planOne(s *Session) error {
	sc.release(s)

	// Effective degree bound for this session at each host: what the
	// market says it can obtain. Marks s's roster for isMember below.
	avail := sc.availFor(s)
	// problem is the instance of src's tree. It holds back one slot per
	// member for each of the remaining still-unplanned source trees: each
	// member appears in each remaining tree with degree at least 1 (a
	// parent link, or a child link at its own root), and a greedy plan
	// that spends those slots as fan-out in early trees leaves later
	// sources unplannable.
	problem := func(src, remaining int) alm.Problem {
		degree := avail
		if remaining > 0 {
			degree = func(v int) int {
				a := avail(v)
				if sc.isMember(v) {
					a -= remaining
				}
				return max(a, 0)
			}
		}
		p := alm.Problem{
			Root:    src,
			Members: make([]int, 0, len(s.Members)),
			Latency: sc.lat,
			Degree:  degree,
		}
		if src != s.Root {
			p.Members = append(p.Members, s.Root)
		}
		for _, m := range s.Members {
			if m != src {
				p.Members = append(p.Members, m)
			}
		}
		return p
	}

	// A roster the pool cannot start — a member's own host full — fails
	// the planner's own check on the first tree whatever the candidates,
	// so it fails here, before the pool pass and before any guard is
	// asked: a member's own host is offered at member priority, which no
	// market preemption can raise (DESIGN.md §7).
	remaining := len(s.Sources) // source trees still unplanned after the current one
	first := problem(s.Root, remaining)
	if err := first.Validate(); err != nil {
		return err
	}

	// Candidate helpers: everyone outside the session with enough
	// obtainable fan-out. Computed once per plan; per-attach avail()
	// reads stay live as earlier trees consume slots. The pass walks the
	// registry's open-host index for the session's class in ascending
	// host order (DESIGN.md §7): a host outside it can neither offer
	// HelperMinDegree slots nor show the guard a victim, so the guard is
	// consulted wherever something is preemptable — on every live
	// non-member host, not only near the tree — as a walk of every host
	// would.
	candidates := sc.candidates[:0]
	for w, word := range sc.reg.openSet(s.Priority) {
		for ; word != 0; word &= word - 1 {
			h := w<<6 | bits.TrailingZeros64(word)
			if !sc.isMember(h) && avail(h) >= sc.cfg.HelperMinDegree {
				candidates = append(candidates, h)
			}
		}
	}
	sc.candidates = candidates

	hs := alm.HelperSet{
		Radius:       helperRadius,
		MinDegree:    sc.cfg.HelperMinDegree,
		ScoreLatency: sc.cfg.ScoreLatency,
		MetricScore:  sc.cfg.MetricScore,
	}
	recruited := sc.recruited[:0] // helpers used by earlier trees, recruitment order
	err := sc.replant(s, func(src int, _ *alm.Tree) (*alm.Tree, error) {
		p := first
		if src != s.Root {
			remaining--
			p = problem(src, remaining)
		}
		var tree *alm.Tree
		if len(recruited) > 0 {
			hs.Candidates = recruited
			tree, _ = alm.PlanWithHelpers(p, hs)
		}
		if tree == nil {
			hs.Candidates = candidates
			var err error
			if tree, err = alm.PlanWithHelpers(p, hs); err != nil {
				return nil, err
			}
		}
		alm.Adjust(tree, sc.lat, p.Degree)
		// New helpers in Tree.Nodes order: the root is a member, so
		// ascending.
		known := len(recruited)
		tree.EachNode(func(v int) bool {
			if !sc.isMember(v) && !slices.Contains(recruited, v) {
				recruited = append(recruited, v)
			}
			return true
		})
		slices.Sort(recruited[known:])
		return tree, nil
	})
	sc.recruited = recruited
	if err == nil {
		sc.tot.Plans++
	}
	return err
}
