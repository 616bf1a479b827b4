package sched

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"p2ppool/internal/alm"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/obs"
)

// NumClasses is the number of market priority classes (1 highest .. 3
// lowest).
const NumClasses = 3

// Decision is the admission-control verdict for a submitted session.
type Decision int

const (
	// Enqueued: the session entered its class's admission queue and
	// will be planned at an upcoming Tick (defer, not grant — the SLO
	// clock starts at Submit).
	Enqueued Decision = iota
	// Rejected: the class's admission queue is full, or the session's
	// root has already failed (counted as RootDied); the session was
	// turned away without consuming planner capacity.
	Rejected
)

func (d Decision) String() string {
	if d == Enqueued {
		return "enqueued"
	}
	return "rejected"
}

// The admission policy, stated once. It is this repository's own
// policy around the paper's market, and every timing in it is a
// power-of-two ratio of a class's deadline, so each value is exact.
const (
	// topDeadline is class 1's admission SLO: a session first planned
	// within this long of Submit counts as compliant. Each class down
	// the ladder doubles it (admitDeadline): 2 / 4 / 8 s. Entries still
	// queued past their class's deadline are shed — serving them late
	// would burn planner capacity on already-blown SLOs.
	topDeadline = 2 * eventsim.Second
	// queueCap bounds each class's admission queue; Submit rejects
	// beyond it.
	queueCap = 256
	// admitPerTick bounds how many queued sessions a Tick admits.
	admitPerTick = 64
	// retryBudget is how many failed plans a session gets before the
	// service degrades: it sheds a lower-priority session to make room,
	// or the session itself.
	retryBudget = 3
	// A class's backoff ladder starts at 1/16 of its own deadline and
	// doubles up to the whole deadline (125 ms → 2 s for class 1,
	// 500 ms → 8 s for class 3), so every class spends its retry budget
	// — and reaches the shed-to-make-room step — while its own SLO
	// clock still has room.
	firstRungPerDeadline = 1.0 / 16
	// backoffJitter is the relative jitter on each backoff, ±20%, drawn
	// from the service's own seeded stream.
	backoffJitter = 0.2
	// holdDown protects a preemption victim from further market
	// preemption for one of the top class's windows: any longer and a
	// preemptor that still had time would be starved.
	holdDown = topDeadline
	// maxRounds bounds the rounds of one replanning sweep (under Tick
	// and the scheduler's Stabilize).
	maxRounds = 64
	// maxShedPerTick bounds the overload sheds of one Tick.
	maxShedPerTick = 64
	// defaultPreemptRate refills the preemption token bucket when
	// ServiceConfig leaves PreemptRate unset, and the bucket holds four
	// seconds of refill unless PreemptBurst says otherwise.
	defaultPreemptRate  = 8
	preemptBurstPerRate = 4
)

// admitDeadline is class p's admission SLO, 2^p s.
func admitDeadline(p int) eventsim.Time {
	return topDeadline * eventsim.Time(uint(1)<<uint(p-1))
}

// ServiceConfig tunes the control plane around a Scheduler.
type ServiceConfig struct {
	// Sched configures the wrapped scheduler.
	Sched Config
	// PreemptRate refills the market-preemption token bucket, in
	// preemptions per virtual second (default 8). Member-priority
	// preemptions are never limited — the paper's members-only
	// guarantee outranks damping.
	PreemptRate float64
	// PreemptBurst is the bucket capacity (default 4 s of PreemptRate).
	PreemptBurst float64
	// Seed drives the backoff jitter stream (independent of every
	// protocol stream).
	Seed int64
}

func (c ServiceConfig) withDefaults() ServiceConfig {
	if c.PreemptRate <= 0 {
		c.PreemptRate = defaultPreemptRate
	}
	if c.PreemptBurst <= 0 {
		c.PreemptBurst = preemptBurstPerRate * c.PreemptRate
	}
	return c
}

// ClassStats is per-priority-class admission accounting.
type ClassStats struct {
	// Submitted counts Submit calls for this class.
	Submitted int
	// Rejected counts queue-full rejections at Submit.
	Rejected int
	// Admitted counts sessions planned at least once.
	Admitted int
	// AdmittedInSLO counts sessions first planned within the class's
	// admit deadline of Submit. Compliance = AdmittedInSLO / Submitted;
	// rejects and sheds are SLO misses, reported honestly.
	AdmittedInSLO int
	// ShedDeadline counts queue entries shed past the admit deadline.
	ShedDeadline int
	// ShedOverload counts live sessions of this class shed to make
	// room for a higher-priority session that exhausted its retry
	// budget on a roster this session held slots on.
	ShedOverload int
	// ShedBudget counts sessions shed after exhausting their own retry
	// budget with no lower-priority session left to displace.
	ShedBudget int
	// RootDied counts sessions (queued or live) ended because their
	// root host failed.
	RootDied int
}

// SLOCompliance is AdmittedInSLO over Submitted (1 when nothing was
// submitted).
func (c ClassStats) SLOCompliance() float64 {
	if c.Submitted == 0 {
		return 1
	}
	return float64(c.AdmittedInSLO) / float64(c.Submitted)
}

// ServiceStats is the control plane's cumulative accounting.
type ServiceStats struct {
	// Plans / PlanFailures count planSession outcomes (a session may
	// contribute several of each across retries).
	Plans        int
	PlanFailures int
	// PreemptDeferred counts failed plans where the preemption guard
	// (token bucket or hold-down) vetoed at least one displacement —
	// damping deferred the session rather than let it storm.
	PreemptDeferred int
	// PeakLive is the high-water mark of concurrently planned
	// sessions.
	PeakLive int
	// Class is per-priority accounting, indexed by priority 1..3.
	Class [NumClasses + 1]ClassStats
}

// sessionState is the control plane's one record of a session, held on
// the session (Session.ctl), from Submit until it ends (EndSession, a
// shed, or its root's failure).
type sessionState struct {
	submitAt eventsim.Time // the SLO clock
	planned  bool          // first plan done and its admission recorded
	attempts int           // budget-consuming failures since the last plan
	defers   int           // damping-caused deferrals (do not consume budget)
	nextTry  eventsim.Time // backing off until then
	heldDown eventsim.Time // protected from market preemption until then
}

// Service is the production control plane around a Scheduler: bounded
// per-class admission queues, deadline shedding, retry budgets with
// seeded exponential backoff, a token bucket + hold-down damping
// preemption storms, and shed-lowest-priority-first degradation under
// overload. Drive it from the event loop: Submit on arrival, Tick
// periodically, NodeFailed/NodeRecovered from failure detection.
type Service struct {
	sc  *Scheduler
	cfg ServiceConfig
	rng *rand.Rand

	// queue holds the sessions submitted and not yet admitted, each
	// class in submit order.
	queue []*Session

	tokens     float64
	lastRefill eventsim.Time
	// now is the virtual time of the Tick or NodeFailed in progress, the
	// two calls that plan; vetoed marks a veto by allow since planSession
	// last cleared it.
	now    eventsim.Time
	vetoed bool

	stats    ServiceStats
	admitLat []float64 // virtual ms from Submit to first plan, append-only

	// Observability handle (nil-safe; zero observer effect).
	hAdmit *obs.Histogram
}

// NewService builds a control plane over a fresh Scheduler for hosts
// with the given degree bounds, and installs its damping there.
func NewService(bounds []int, lat alm.LatencyFunc, cfg ServiceConfig) *Service {
	cfg = cfg.withDefaults()
	sv := &Service{
		sc:     NewScheduler(bounds, lat, cfg.Sched),
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		tokens: cfg.PreemptBurst,
	}
	sv.sc.guard, sv.sc.onPreempt = sv.allow, sv.preempted
	return sv
}

// Scheduler exposes the wrapped scheduler (invariant audits read its
// sessions, registry and dirty set).
func (sv *Service) Scheduler() *Scheduler { return sv.sc }

// Stats returns a copy of the cumulative accounting.
func (sv *Service) Stats() ServiceStats { return sv.stats }

// AdmitLatencies returns the recorded Submit-to-first-plan latencies in
// virtual ms, in admission order (percentile reporting).
func (sv *Service) AdmitLatencies() []float64 {
	return append([]float64(nil), sv.admitLat...)
}

// QueueDepth returns the current admission-queue length.
func (sv *Service) QueueDepth() int { return len(sv.queue) }

// LiveSessions returns the number of sessions currently in planning.
func (sv *Service) LiveSessions() int { return len(sv.sc.sessions) }

// Instrument wires the service (and its scheduler) to an observability
// registry: a queue-depth gauge and counters for admitted, rejected,
// shed and deferred sessions, each read when a snapshot is taken, and
// an admission-latency histogram. reg may be nil; instrumentation
// never alters control decisions.
func (sv *Service) Instrument(reg *obs.Registry) {
	sv.sc.Instrument(reg)
	reg.Gauge("sched.admission_queue_depth", func() float64 { return float64(len(sv.queue)) })
	sv.hAdmit = reg.Histogram("sched.admission_latency_ms", obs.DefaultLatencyBounds)
	reg.Counter("sched.admitted", sv.classTotal(func(c ClassStats) int { return c.Admitted }))
	reg.Counter("sched.rejected", sv.classTotal(func(c ClassStats) int { return c.Rejected }))
	reg.Counter("sched.shed", sv.classTotal(func(c ClassStats) int { return c.ShedDeadline + c.ShedOverload + c.ShedBudget }))
	reg.Counter("sched.preempt_deferred", func() uint64 { return uint64(sv.stats.PreemptDeferred) })
}

// classTotal reads one count of ClassStats summed over the classes.
func (sv *Service) classTotal(count func(ClassStats) int) func() uint64 {
	return func() uint64 {
		n := 0
		for _, c := range sv.stats.Class {
			n += count(c)
		}
		return uint64(n)
	}
}

// Submit offers a session for admission at virtual time now. It never
// plans inline: the verdict is an explicit Enqueued (planned at an
// upcoming Tick; the SLO clock starts now) or Rejected (class queue
// full, or root already failed). Members that have already failed are
// stripped from the roster, as NodeFailed strips them from queued ones,
// and the session remembers them for Scheduler.Rejoin.
// An error means the submission itself was malformed: a priority
// outside the classes, a session already known, or a roster that fails
// checkRoster.
func (sv *Service) Submit(now eventsim.Time, s *Session) (Decision, error) {
	if s.Priority < 1 || s.Priority > NumClasses {
		return Rejected, fmt.Errorf("sched: session %d priority %d outside 1..%d", s.ID, s.Priority, NumClasses)
	}
	if sv.sc.sessions[s.ID] != nil {
		return Rejected, fmt.Errorf("sched: duplicate session %d", s.ID)
	}
	queued := 0 // of s's class
	for _, q := range sv.queue {
		if q.ID == s.ID {
			return Rejected, fmt.Errorf("sched: duplicate session %d", s.ID)
		}
		if q.Priority == s.Priority {
			queued++
		}
	}
	if err := sv.sc.checkRoster(s, false); err != nil {
		return Rejected, err
	}
	sv.stats.Class[s.Priority].Submitted++
	if sv.sc.reg.Dead(s.Root) {
		sv.stats.Class[s.Priority].RootDied++
		return Rejected, nil
	}
	for i := len(s.Members) - 1; i >= 0; i-- {
		if sv.sc.reg.Dead(s.Members[i]) {
			s.lose(s.Members[i])
		}
	}
	if queued >= queueCap {
		sv.stats.Class[s.Priority].Rejected++
		return Rejected, nil
	}
	s.ctl = sessionState{submitAt: now}
	sv.queue = append(sv.queue, s)
	return Enqueued, nil
}

// EndSession retires a session (natural departure): live reservations
// are released; a still-queued session is silently withdrawn (its SLO
// outcome stays a miss — it was submitted and never admitted).
func (sv *Service) EndSession(id SessionID) {
	sv.sc.RemoveSession(id)
	sv.queue = slices.DeleteFunc(sv.queue, func(q *Session) bool { return q.ID == id })
}

// NodeFailed routes failure detection through the scheduler (in-place
// repair, root-dead removal) and cleans up control-plane state for
// sessions the failure ended. Queued sessions lose the dead host from
// their rosters; queued sessions rooted there are dropped. Idempotent,
// like Scheduler.NodeFailed.
func (sv *Service) NodeFailed(now eventsim.Time, host int) []SessionID {
	if sv.sc.reg.Dead(host) {
		return nil
	}
	for _, s := range sv.sc.sessions {
		if s.Root == host {
			sv.stats.Class[s.Priority].RootDied++
		}
	}
	sv.now = now
	affected := sv.sc.NodeFailed(host)
	kept := sv.queue[:0]
	for _, s := range sv.queue {
		if s.Root == host {
			sv.stats.Class[s.Priority].RootDied++
			continue
		}
		s.lose(host)
		kept = append(kept, s)
	}
	sv.queue = kept
	return affected
}

// NodeRecovered routes recovery detection through the scheduler and, on
// a genuine (first) recovery, clears pending retry backoffs so sessions
// waiting on capacity see the returned host promptly. Double fires
// return false and change nothing.
func (sv *Service) NodeRecovered(now eventsim.Time, host int) bool {
	if !sv.sc.NodeRecovered(host) {
		return false
	}
	for _, s := range sv.sc.sessions {
		s.ctl.nextTry = min(s.ctl.nextTry, now)
	}
	return true
}

// refill tops up the preemption token bucket for elapsed virtual time.
func (sv *Service) refill(now eventsim.Time) {
	if now > sv.lastRefill {
		sv.tokens += float64(now-sv.lastRefill) / float64(eventsim.Second) * sv.cfg.PreemptRate
		if sv.tokens > sv.cfg.PreemptBurst {
			sv.tokens = sv.cfg.PreemptBurst
		}
	}
	sv.lastRefill = now
}

// allow is the scheduler's guard: it vetoes market preemption of a
// victim held down past now, and of any victim while the token bucket
// is empty, and marks the veto. Every session the scheduler can
// displace is live, so it and preempted read the victim's record
// through the session table.
func (sv *Service) allow(victim SessionID) bool {
	if v := sv.sc.sessions[victim]; (v != nil && v.ctl.heldDown > sv.now) || sv.tokens < 1 {
		sv.vetoed = true
		return false
	}
	return true
}

// preempted is the scheduler's preemption hook: a market-priority
// preemption spends a token, and every preemption arms the victim's
// hold-down.
func (sv *Service) preempted(victim SessionID, atPriority int) {
	if atPriority != MemberPriority {
		sv.tokens--
	}
	if v := sv.sc.sessions[victim]; v != nil {
		v.ctl.heldDown = sv.now + holdDown
	}
}

// backoff draws the jittered delay for a priority-pri session's given
// number of budget-consuming failures (1 => the first rung) from its
// class's ladder.
func (sv *Service) backoff(pri, attempts int) eventsim.Time {
	deadline := admitDeadline(pri)
	d := firstRungPerDeadline * deadline
	for i := 1; i < attempts && d < deadline; i++ {
		d = min(2*d, deadline)
	}
	return d * eventsim.Time(1+backoffJitter*(2*sv.rng.Float64()-1))
}

// lowestPriorityVictim picks the live session to shed so the starving
// session s can plan: strictly lower priority only, and only among
// sessions actually holding slots on s's roster hosts — when s keeps
// failing it is those hosts that are contended, and shedding a
// bystander frees nothing s can use (it just bleeds low-priority
// sessions without unsticking anyone). Lowest rank first, youngest
// (largest ID) first; nil when no roster holder outranks, in which
// case honest self-shed beats collateral damage.
func (sv *Service) lowestPriorityVictim(s *Session) *Session {
	var vic *Session
	for _, h := range s.roster() {
		for _, a := range sv.sc.reg.tables[h].allocs {
			c, ok := sv.sc.sessions[a.Session]
			if !ok || c.ID == s.ID || c.Priority <= s.Priority {
				continue
			}
			if vic == nil || c.Priority > vic.Priority ||
				(c.Priority == vic.Priority && c.ID > vic.ID) {
				vic = c
			}
		}
	}
	return vic
}

// shed removes a live session and records why.
func (sv *Service) shed(s *Session, record *int) {
	sv.sc.RemoveSession(s.ID)
	*record++
}

// planSession runs one guarded planning attempt at the Tick's time and
// applies the retry / degradation policy to the outcome. shedBudget
// caps overload sheds across the enclosing Tick.
func (sv *Service) planSession(s *Session, shedBudget *int) {
	now := sv.now
	sv.vetoed = false
	err := sv.sc.planOne(s)
	rs := &s.ctl
	if err == nil {
		sv.stats.Plans++
		rs.attempts, rs.defers = 0, 0
		if !rs.planned {
			rs.planned = true
			lat := float64(now - rs.submitAt)
			sv.admitLat = append(sv.admitLat, lat)
			cs := &sv.stats.Class[s.Priority]
			cs.Admitted++
			if now-rs.submitAt <= admitDeadline(s.Priority) {
				cs.AdmittedInSLO++
			}
			sv.hAdmit.Observe(lat)
		}
		return
	}
	sv.stats.PlanFailures++
	rung, exhausted := 1, false
	if sv.vetoed {
		// Damping deferred this session rather than let it preempt —
		// that is the control plane's doing, so it does not consume
		// the session's budget and retries on the first rung. A cap
		// keeps pathological deferral from becoming a silent livelock.
		sv.stats.PreemptDeferred++
		rs.defers++
		exhausted = rs.defers > 4*retryBudget
	} else {
		rs.attempts++
		rung, exhausted = rs.attempts, rs.attempts >= retryBudget
	}
	if !exhausted {
		rs.nextTry = now + sv.backoff(s.Priority, rung)
		s.dirty = true
		return
	}
	// Graceful degradation: make room by shedding the lowest-priority
	// session holding slots on the starving session's roster and fund
	// one more attempt next tick. When no roster holder outranks (or
	// the tick's shed budget is spent), shed the starving session
	// itself — honest rejection beats thrashing.
	if vic := sv.lowestPriorityVictim(s); vic != nil && *shedBudget > 0 {
		*shedBudget--
		sv.shed(vic, &sv.stats.Class[vic.Priority].ShedOverload)
		rs.attempts = retryBudget - 1
		rs.defers = 0
		rs.nextTry = now + eventsim.Millisecond
		s.dirty = true
		return
	}
	sv.shed(s, &sv.stats.Class[s.Priority].ShedBudget)
}

// Tick advances the control plane at virtual time now: refill the
// damper, shed queue entries past their admit deadline, admit up to
// admitPerTick queued sessions in priority order, then sweep dirty
// sessions whose backoff has elapsed (priority order, bounded rounds).
// Call it on a fixed period from the event loop.
func (sv *Service) Tick(now eventsim.Time) error {
	sv.now = now
	sv.refill(now)

	// 1. Deadline shedding from the queue.
	kept := sv.queue[:0]
	for _, s := range sv.queue {
		if now-s.ctl.submitAt > admitDeadline(s.Priority) {
			sv.stats.Class[s.Priority].ShedDeadline++
			continue
		}
		kept = append(kept, s)
	}
	sv.queue = kept

	// 2. Admission: highest class first, submit order within a class —
	// the order the queue already holds each class in, which a stable
	// sort keeps.
	slices.SortStableFunc(sv.queue, func(a, b *Session) int { return cmp.Compare(a.Priority, b.Priority) })
	n := min(admitPerTick, len(sv.queue))
	for _, s := range sv.queue[:n] {
		if err := sv.sc.AddSession(s); err != nil {
			return err
		}
	}
	sv.queue = append(sv.queue[:0], sv.queue[n:]...)

	// 3. Replanning sweep: dirty sessions whose backoff has elapsed. One
	// backing off, or dirty at the round cap, waits for a later Tick, so
	// the sweep's results go unused. Overload sheds are bounded per Tick.
	shedBudget := maxShedPerTick
	sv.sc.sweep(func(s *Session) bool { return s.ctl.nextTry <= now },
		func(s *Session) error { sv.planSession(s, &shedBudget); return nil })

	if live := len(sv.sc.sessions); live > sv.stats.PeakLive {
		sv.stats.PeakLive = live
	}
	return nil
}
