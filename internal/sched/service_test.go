package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"p2ppool/internal/eventsim"
	"p2ppool/internal/obs"
)

// lineLat is the |a-b| latency used by the hand-built control-plane
// scenarios: chain order under Leafset is then just numeric distance
// from the root, which makes the planned shapes predictable.
func lineLat(a, b int) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return float64(d)
}

func TestServiceSubmitBounds(t *testing.T) {
	sv := NewService([]int{4, 4, 4, 4}, lineLat, ServiceConfig{})

	if _, err := sv.Submit(0, &Session{ID: 1, Priority: 0, Root: 0}); err == nil {
		t.Fatal("priority 0 must be a malformed submission")
	}
	if _, err := sv.Submit(0, &Session{ID: 1, Priority: 4, Root: 0}); err == nil {
		t.Fatal("priority 4 must be a malformed submission")
	}

	for id := SessionID(1); id <= queueCap; id++ {
		d, err := sv.Submit(0, &Session{ID: id, Priority: 3, Root: 0, Members: []int{1}})
		if err != nil || d != Enqueued {
			t.Fatalf("submit %d: decision %v, err %v", id, d, err)
		}
	}
	if _, err := sv.Submit(0, &Session{ID: 1, Priority: 3, Root: 0}); err == nil {
		t.Fatal("duplicate ID must error")
	}
	over := SessionID(queueCap + 1)
	d, err := sv.Submit(0, &Session{ID: over, Priority: 3, Root: 0, Members: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if d != Rejected || d.String() != "rejected" || Enqueued.String() != "enqueued" {
		t.Fatalf("over-cap submit decided %v, want rejected", d)
	}
	st := sv.Stats().Class[3]
	if st.Submitted != queueCap+1 || st.Rejected != 1 {
		t.Fatalf("class stats = %+v, want Submitted %d Rejected 1", st, queueCap+1)
	}
	// A rejected session was never registered: the ID is free to retry.
	if d, err := sv.Submit(0, &Session{ID: over, Priority: 2, Root: 0, Members: []int{1}}); err != nil || d != Enqueued {
		t.Fatalf("resubmit after reject: decision %v, err %v", d, err)
	}

	// A live ID is as taken as a queued one, until the session ends: then
	// the same session may be submitted again, and is admitted afresh.
	sv = NewService([]int{4, 4}, lineLat, ServiceConfig{})
	s := &Session{ID: 5, Priority: 1, Root: 0, Members: []int{1}}
	if _, err := sv.Submit(0, s); err != nil {
		t.Fatal(err)
	}
	if err := sv.Tick(eventsim.Millisecond); err != nil || sv.Scheduler().Session(5) == nil {
		t.Fatalf("session 5 not admitted: err %v", err)
	}
	if _, err := sv.Submit(eventsim.Millisecond, &Session{ID: 5, Priority: 2, Root: 1, Members: []int{0}}); err == nil {
		t.Fatal("duplicate of a live ID must error")
	}
	sv.EndSession(5)
	if d, err := sv.Submit(2*eventsim.Millisecond, s); err != nil || d != Enqueued {
		t.Fatalf("resubmit after EndSession: decision %v, err %v", d, err)
	}
	if err := sv.Tick(3 * eventsim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c := sv.Stats().Class[1]; c.Submitted != 2 || c.Admitted != 2 || s.Tree == nil {
		t.Fatalf("class 1 after the resubmit: %+v, planned %v; want 2 submitted and 2 admitted", c, s.Tree != nil)
	}
}

// TestServiceAdmitsInSubmitOrder: a Tick admits up to admitPerTick
// queued sessions, highest class first and in submit order within a
// class. A class-3 burst larger than admitPerTick arrives over several
// ticks with class-1 sessions mixed in, under IDs shuffled against
// arrival, so ID order is not submit order; each Tick must make live
// exactly the sessions a FIFO queue per class predicts.
func TestServiceAdmitsInSubmitOrder(t *testing.T) {
	const ticks, perTick = 3, 100 // every tenth arrival is class 1
	n := ticks * perTick
	bounds := make([]int, 2*n)
	for h := range bounds {
		bounds[h] = 2
	}
	sv := NewService(bounds, lineLat, ServiceConfig{})
	ids := rand.New(rand.NewSource(3)).Perm(n)
	var fifo [NumClasses + 1][]SessionID
	submitted := 0
	for k := 1; submitted < n || sv.QueueDepth() > 0; k++ {
		now := eventsim.Time(k) * eventsim.Millisecond
		for i := 0; i < perTick && submitted < n; i++ {
			pri := 3
			if i%10 == 9 {
				pri = 1
			}
			id := SessionID(ids[submitted] + 1)
			s := &Session{ID: id, Priority: pri, Root: 2 * submitted, Members: []int{2*submitted + 1}}
			if d, err := sv.Submit(now, s); err != nil || d != Enqueued {
				t.Fatalf("submit %d: decision %v, err %v", id, d, err)
			}
			fifo[pri] = append(fifo[pri], id)
			submitted++
		}
		var want []SessionID
		for p := 1; p <= NumClasses; p++ {
			take := min(admitPerTick-len(want), len(fifo[p]))
			want = append(want, fifo[p][:take]...)
			fifo[p] = fifo[p][take:]
		}
		live := sv.LiveSessions()
		if err := sv.Tick(now); err != nil {
			t.Fatal(err)
		}
		if got := sv.LiveSessions() - live; got != len(want) {
			t.Fatalf("tick %d admitted %d sessions, want %d", k, got, len(want))
		}
		for _, id := range want {
			if sv.Scheduler().Session(id) == nil {
				t.Fatalf("tick %d did not admit session %d; want %v", k, id, want)
			}
		}
	}
	if c := sv.Stats().Class; c[1].Admitted != n/10 || c[3].Admitted != n-n/10 {
		t.Fatalf("admitted %d in class 1 and %d in class 3, want %d and %d", c[1].Admitted, c[3].Admitted, n/10, n-n/10)
	}
}

// TestTickRoundCap: a Tick's replanning sweep runs at most maxRounds
// rounds, as Stabilize does. On a preemptChain of maxRounds sessions
// one Tick settles every session; with one session more, the last is
// left dirty, and the next Tick settles it.
func TestTickRoundCap(t *testing.T) {
	for _, n := range []int{maxRounds, maxRounds + 1} {
		sv := NewService(chainBounds(n), lineLat, ServiceConfig{})
		preemptChain(t, sv.sc, n)
		if err := sv.Tick(0); err != nil {
			t.Fatal(err)
		}
		var wantDirty []SessionID
		if n > maxRounds {
			wantDirty = []SessionID{SessionID(n)}
		}
		if plans, dirty := sv.Stats().Plans, sv.sc.DirtySessions(); plans != maxRounds || !slices.Equal(dirty, wantDirty) {
			t.Errorf("chain of %d: first Tick made %d plans and left %v dirty; want %d and %v", n, plans, dirty, maxRounds, wantDirty)
		}
		if err := sv.Tick(eventsim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if plans, dirty := sv.Stats().Plans, sv.sc.DirtySessions(); plans != n || len(dirty) != 0 {
			t.Errorf("chain of %d: two Ticks made %d plans and left %v dirty; want %d and none", n, plans, dirty, n)
		}
	}
}

// TestServiceDeadlineShed: one Tick admits admitPerTick sessions; the
// one left queued is shed once its class's deadline has passed.
func TestServiceDeadlineShed(t *testing.T) {
	// Session i is the pair of hosts 2i -> 2i+1, so every admitted
	// session plans on hosts of its own.
	sessions := make([]*Session, admitPerTick+1)
	bounds := make([]int, 2*len(sessions))
	for i := range sessions {
		bounds[2*i], bounds[2*i+1] = 2, 2
		sessions[i] = &Session{ID: SessionID(i + 1), Priority: 3, Root: 2 * i, Members: []int{2*i + 1}}
	}
	sv := NewService(bounds, lineLat, ServiceConfig{})
	for _, s := range sessions {
		if _, err := sv.Submit(0, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := sv.Tick(eventsim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sv.LiveSessions() != admitPerTick || sv.QueueDepth() != 1 {
		t.Fatalf("after first tick: %d live, %d queued; want %d, 1", sv.LiveSessions(), sv.QueueDepth(), admitPerTick)
	}
	// The last session is still queued when its 8 s deadline blows.
	if err := sv.Tick(admitDeadline(3) + eventsim.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := sv.Stats().Class[3]
	if st.ShedDeadline != 1 || sv.QueueDepth() != 0 {
		t.Fatalf("deadline shed: %+v, queue %d; want ShedDeadline 1, empty queue", st, sv.QueueDepth())
	}
	if st.Admitted != admitPerTick || st.AdmittedInSLO != admitPerTick {
		t.Fatalf("admission stats = %+v, want exactly %d compliant admits", st, admitPerTick)
	}
	if got, want := st.SLOCompliance(), float64(admitPerTick)/float64(admitPerTick+1); got != want {
		t.Fatalf("SLO compliance = %v, want %v (all admitted in time but the one shed)", got, want)
	}
	if sessions[0].Tree == nil {
		t.Fatal("admitted session has no plan")
	}

	// The same queue with the second tick exactly on the deadline: the
	// last session is not stale yet, so that tick admits it, and an
	// admission at the deadline is within SLO.
	sv = NewService(bounds, lineLat, ServiceConfig{})
	for i := range sessions {
		if _, err := sv.Submit(0, &Session{ID: SessionID(i + 1), Priority: 3, Root: 2 * i, Members: []int{2*i + 1}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, now := range []eventsim.Time{eventsim.Millisecond, admitDeadline(3)} {
		if err := sv.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	if st := sv.Stats().Class[3]; st.ShedDeadline != 0 || st.Admitted != admitPerTick+1 || st.AdmittedInSLO != admitPerTick+1 {
		t.Fatalf("tick at the deadline: %+v; want no shed and %d admits, all in SLO", st, admitPerTick+1)
	}
}

// TestServiceRetryBudgetShedsSelf starves a session that can never plan
// (its root host has no degree at all) and checks it burns its retry
// budget and is then shed honestly — ShedBudget, not an error or a
// livelock — leaving no control-plane residue.
func TestServiceRetryBudgetShedsSelf(t *testing.T) {
	sv := NewService([]int{0, 0}, lineLat, ServiceConfig{})

	s := &Session{ID: 7, Priority: 3, Root: 0, Members: []int{1}}
	if _, err := sv.Submit(0, s); err != nil {
		t.Fatal(err)
	}
	if err := sv.Tick(eventsim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sv.LiveSessions() != 1 {
		t.Fatal("session should be live (admitted, plan pending retry)")
	}
	// The first two retries wait out 500 ms and 1 s rungs (±20%).
	now := 100 * eventsim.Millisecond
	for ; now <= admitDeadline(3) && sv.LiveSessions() != 0; now += 100 * eventsim.Millisecond {
		if err := sv.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	st := sv.Stats()
	if st.Class[3].ShedBudget != 1 {
		t.Fatalf("ShedBudget = %d, want 1 (stats %+v)", st.Class[3].ShedBudget, st.Class[3])
	}
	if st.PlanFailures != retryBudget || st.Plans != 0 {
		t.Fatalf("Plans/PlanFailures = %d/%d, want 0/%d", st.Plans, st.PlanFailures, retryBudget)
	}
	if sv.LiveSessions() != 0 || sv.QueueDepth() != 0 {
		t.Fatalf("shed session left residue: %d live, %d queued", sv.LiveSessions(), sv.QueueDepth())
	}
	if got := heldOn(sv.sc.reg, s.ID); got != 0 {
		t.Fatalf("shed session still holds %d slots", got)
	}
	// All state forgotten: the ID may be submitted again.
	if d, err := sv.Submit(now, &Session{ID: 7, Priority: 3, Root: 0, Members: []int{1}}); err != nil || d != Enqueued {
		t.Fatalf("resubmit after shed: decision %v, err %v", d, err)
	}

	// One more starving session than a Tick may shed for exhausts its
	// budget in the same Tick as the rest: it sheds itself. Block i is
	// hosts 3i, 3i+1 and 3i+2 of degree 1. P3 session 1000+i roots at
	// 3i with member 3i+1; P1 session i+1 roots at 3i+2 with member 3i,
	// whose one slot the P3 root holds at member priority. Session 1 is
	// admitted a tick before the rest, whose backoffs then line up with
	// its own.
	n := maxShedPerTick + 1
	bounds := make([]int, 3*n)
	for h := range bounds {
		bounds[h] = 1
	}
	sv = NewService(bounds, lineLat, ServiceConfig{})
	reg := obs.New()
	sv.Instrument(reg)
	submit := func(now eventsim.Time, s *Session) {
		if _, err := sv.Submit(now, s); err != nil {
			t.Fatal(err)
		}
	}
	tick := func(now eventsim.Time) {
		if err := sv.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	starving := func(i int) *Session {
		return &Session{ID: SessionID(i + 1), Priority: 1, Root: 3*i + 2, Members: []int{3 * i}}
	}
	for i := 0; i < n; i++ {
		submit(0, &Session{ID: SessionID(1000 + i), Priority: 3, Root: 3 * i, Members: []int{3*i + 1}})
	}
	tick(eventsim.Millisecond) // admitPerTick of the P3 sessions, then the rest
	tick(2 * eventsim.Millisecond)
	submit(2*eventsim.Millisecond, starving(0))
	tick(3 * eventsim.Millisecond) // session 1 fails once
	for i := 1; i < n; i++ {
		submit(3*eventsim.Millisecond, starving(i))
	}
	tick(4 * eventsim.Millisecond)   // the rest fail once
	tick(300 * eventsim.Millisecond) // every P1 session fails twice
	tick(700 * eventsim.Millisecond) // and a third time, all in one Tick
	st = sv.Stats()
	if st.Class[3].ShedOverload != maxShedPerTick || st.Class[1].ShedBudget != 1 {
		t.Fatalf("P3 ShedOverload %d, P1 ShedBudget %d; want %d, 1",
			st.Class[3].ShedOverload, st.Class[1].ShedBudget, maxShedPerTick)
	}
	// The sched.shed counter sums every kind of shed over the classes.
	if got := reg.Snapshot().Counter("sched.shed"); got != maxShedPerTick+1 {
		t.Errorf("sched.shed = %d, want %d", got, maxShedPerTick+1)
	}
}

// TestServiceShedsLowestPriorityFirst pins graceful degradation: when a
// high-priority session exhausts its retry budget, the service makes
// room by shedding the lowest-priority live session — not a mid-tier
// one, and not the starving session itself.
//
// Topology (lineLat, bounds below; a degree bound counts the parent
// link too): host 0 roots the P3 session, host 1 the P2 one. Session B
// (P1, root 2, members {0, 6}) needs both of host 0's slots for its
// relay chain 2 -> 0 -> 6 (parent link + one child), but the P3
// session's root reservation holds one of them at member priority,
// which B's own member priority cannot preempt. Only shedding the P3
// session frees the chain.
func TestServiceShedsLowestPriorityFirst(t *testing.T) {
	bounds := []int{2, 1, 1, 0, 1, 1, 1}
	sv := NewService(bounds, lineLat, ServiceConfig{})

	a1 := &Session{ID: 1, Priority: 3, Root: 0, Members: []int{4}}
	a2 := &Session{ID: 2, Priority: 2, Root: 1, Members: []int{5}}
	for _, s := range []*Session{a1, a2} {
		if _, err := sv.Submit(0, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := sv.Tick(eventsim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if a1.Tree == nil || a2.Tree == nil {
		t.Fatal("background sessions failed to plan")
	}

	// B's three failures wait out its 125 ms and 250 ms rungs (±20%);
	// the third sheds the P3 session and funds one more attempt.
	b := &Session{ID: 3, Priority: 1, Root: 2, Members: []int{0, 6}}
	if _, err := sv.Submit(eventsim.Millisecond, b); err != nil {
		t.Fatal(err)
	}
	for now := 100 * eventsim.Millisecond; now <= eventsim.Second; now += 100 * eventsim.Millisecond {
		shed := sv.Stats().Class[3].ShedOverload
		if err := sv.Tick(now); err != nil {
			t.Fatal(err)
		}
		// The shed funds B exactly one more attempt, a millisecond on.
		if rs := b.ctl; shed == 0 && sv.Stats().Class[3].ShedOverload == 1 &&
			(rs.attempts != retryBudget-1 || rs.nextTry != now+eventsim.Millisecond) {
			t.Fatalf("after the shed B has %d attempts, next try at %v; want %d at %v",
				rs.attempts, rs.nextTry, retryBudget-1, now+eventsim.Millisecond)
		}
	}

	st := sv.Stats()
	if st.Class[3].ShedOverload != 1 {
		t.Fatalf("P3 ShedOverload = %d, want 1 (stats %+v)", st.Class[3].ShedOverload, st)
	}
	if st.Class[2].ShedOverload != 0 {
		t.Fatal("mid-priority session was shed; lowest class must go first")
	}
	if _, live := sv.sc.sessions[a1.ID]; live {
		t.Fatal("P3 session still live after overload shed")
	}
	if _, live := sv.sc.sessions[a2.ID]; !live {
		t.Fatal("P2 session was lost")
	}
	if b.Tree == nil || !b.Tree.Contains(0) || !b.Tree.Contains(6) {
		t.Fatalf("P1 session not planned after shed (tree %v)", b.Tree)
	}
	if st.Class[1].Admitted != 1 || st.Class[1].AdmittedInSLO != 1 {
		t.Fatalf("P1 admission stats = %+v, want compliant admit", st.Class[1])
	}
	if err := sv.sc.reg.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Two P3 sessions hold host 0 at member priority, session 1 as its
	// root and session 2 as a member; B (root 2, member 0) needs one of
	// host 0's two slots. Within the lowest class the youngest goes
	// first, whichever of the two host 0 lists first: session 2 is shed
	// and session 1 is kept.
	for _, youngFirst := range []bool{false, true} {
		sv = NewService([]int{2, 0, 1, 0, 1, 1}, lineLat, ServiceConfig{})
		old := &Session{ID: 1, Priority: 3, Root: 0, Members: []int{4}}
		young := &Session{ID: 2, Priority: 3, Root: 5, Members: []int{0}}
		b = &Session{ID: 3, Priority: 1, Root: 2, Members: []int{0}}
		admit := []*Session{old, young}
		if youngFirst {
			admit = []*Session{young, old}
		}
		for i, s := range admit {
			if _, err := sv.Submit(eventsim.Time(i)*eventsim.Millisecond, s); err != nil {
				t.Fatal(err)
			}
			if err := sv.Tick(eventsim.Time(i+1) * eventsim.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		if old.Tree == nil || young.Tree == nil {
			t.Fatal("the P3 sessions failed to plan")
		}
		if _, err := sv.Submit(2*eventsim.Millisecond, b); err != nil {
			t.Fatal(err)
		}
		for now := 100 * eventsim.Millisecond; now <= eventsim.Second; now += 100 * eventsim.Millisecond {
			if err := sv.Tick(now); err != nil {
				t.Fatal(err)
			}
		}
		_, oldLive := sv.sc.sessions[old.ID]
		_, youngLive := sv.sc.sessions[young.ID]
		if !oldLive || youngLive || b.Tree == nil {
			t.Fatalf("young admitted first %v: live: session 1 %v, session 2 %v, B planned %v; want true, false, true",
				youngFirst, oldLive, youngLive, b.Tree != nil)
		}
	}
}

// TestServiceBackoffRescalesWithDeadlines: each class's backoff ladder
// is sized from its own deadline, so the top class spends its retry
// budget inside its own SLO window. With one ladder for every class,
// sized from the lowest class's window, the top class burned its whole
// budget early and self-shed, while the bottom class's slower schedule
// retried after the contention cleared and was admitted — a priority
// inversion.
//
// Topology (lineLat, bounds {1,1,1,1}): host 1 has the only contended
// slot. A P1 blocker (root 0, member 1) holds it at member priority —
// which neither contender's member priority can preempt, and which
// lowestPriorityVictim cannot shed for the P1 contender (same class) —
// until it departs at 187.5 ms. The P1 contender (root 2, member 1) and
// P3 contender (root 3, member 1) then race their backoff schedules for
// the freed slot. Ticks come every 12.5 ms.
func TestServiceBackoffRescalesWithDeadlines(t *testing.T) {
	const tick = 12.5 * eventsim.Millisecond
	sv := NewService([]int{1, 1, 1, 1}, lineLat, ServiceConfig{})

	blocker := &Session{ID: 1, Priority: 1, Root: 0, Members: []int{1}}
	if _, err := sv.Submit(0, blocker); err != nil {
		t.Fatal(err)
	}
	hi := &Session{ID: 2, Priority: 1, Root: 2, Members: []int{1}}
	lo := &Session{ID: 3, Priority: 3, Root: 3, Members: []int{1}}
	for _, s := range []*Session{hi, lo} {
		if _, err := sv.Submit(18.75*eventsim.Millisecond, s); err != nil {
			t.Fatal(err)
		}
	}
	for now := tick; now <= 100*tick; now += tick {
		if now == 15*tick {
			sv.EndSession(blocker.ID)
		}
		if err := sv.Tick(now); err != nil {
			t.Fatal(err)
		}
	}

	st := sv.Stats()
	hiLive := sv.Scheduler().Session(hi.ID) != nil
	loLive := sv.Scheduler().Session(lo.ID) != nil
	if st.Class[1].ShedBudget != 0 {
		t.Errorf("P1 contender shed on retry budget inside its 2 s SLO window (P3 admitted=%v): backoff not sized from its class's deadline", loLive)
	}
	if !hiLive {
		t.Errorf("P1 contender not live after contention cleared; class 1 stats %+v", st.Class[1])
	}
	if st.Class[1].Admitted != 2 {
		t.Errorf("class 1 Admitted = %d, want 2 (blocker + contender)", st.Class[1].Admitted)
	}
	if err := sv.sc.reg.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// numericFields calls visit on every int or float field under v (an
// eventsim.Time is a float), named by its path.
func numericFields(v reflect.Value, path string, visit func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			numericFields(v.Field(i), strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), visit)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			numericFields(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	case reflect.Int, reflect.Int64, reflect.Float64:
		visit(path, v)
	}
}

// TestDerivedDefaultsFollowTheirBases is the property the derived-
// defaults table promises: the defaults are the documented ones; a base
// set to k times its default, every other field left unset, scales each
// value derived from it by exactly k (powers of two keep the products
// exact) and leaves every other value at its default; a derived field
// set explicitly is kept; and every time or rate field is classified,
// so a timer added without a row fails. The admission timings are not
// fields but constants, each a ratio of a class's deadline.
func TestDerivedDefaultsFollowTheirBases(t *testing.T) {
	table := []struct {
		base    string
		derived []string
	}{
		{"PreemptRate", []string{"PreemptBurst"}},
	}
	effective := func(c ServiceConfig) map[string]float64 {
		m := map[string]float64{}
		numericFields(reflect.ValueOf(c.withDefaults()), "", func(name string, f reflect.Value) {
			if f.CanFloat() {
				m[name] = f.Float()
			} else {
				m[name] = float64(f.Int())
			}
		})
		return m
	}
	set := func(c *ServiceConfig, name string, v float64) {
		numericFields(reflect.ValueOf(c).Elem(), "", func(n string, f reflect.Value) {
			if n == name {
				f.SetFloat(v)
			}
		})
	}
	def := effective(ServiceConfig{})
	for name, want := range map[string]float64{"PreemptRate": 8, "PreemptBurst": 32} {
		if def[name] != want {
			t.Errorf("default %s = %v, want %v", name, def[name], want)
		}
	}

	named := map[string]bool{}
	for _, row := range table {
		named[row.base] = true
		for _, d := range row.derived {
			named[d] = true
		}
	}
	numericFields(reflect.ValueOf(ServiceConfig{}), "", func(name string, f reflect.Value) {
		if f.CanFloat() && !named[name] {
			t.Errorf("ServiceConfig.%s is in no row of the derived-defaults table", name)
		}
	})

	for _, row := range table {
		follows := map[string]bool{row.base: true}
		for _, d := range row.derived {
			follows[d] = true
		}
		for _, k := range []float64{1.0 / 4096, 1.0 / 8, 1.0 / 2, 2, 8} {
			var c ServiceConfig
			set(&c, row.base, k*def[row.base])
			for name, got := range effective(c) {
				want := def[name]
				if follows[name] {
					want = k * want
				}
				if got != want {
					t.Errorf("%s at %v × default: %s = %v, want %v", row.base, k, name, got, want)
				}
			}
			for _, d := range row.derived {
				c := c
				set(&c, d, 3*def[d])
				if got := effective(c)[d]; got != 3*def[d] {
					t.Errorf("%s set to %v beside %s at %v × default came out %v", d, 3*def[d], row.base, k, got)
				}
			}
		}
	}
}

// TestHoldDownFollowsTheTopDeadline: a victim is protected for one of
// the top class's SLO windows — long enough to damp a storm, short
// enough that a top-class preemptor still has time — and not for one of
// the bottom class's, which would be four of the top class's.
func TestHoldDownFollowsTheTopDeadline(t *testing.T) {
	const armed = 1234.5
	for _, tc := range []struct {
		name      string
		class     int
		protected bool // 1 ms before the class's deadline has passed since the preemption
	}{
		{"top", 1, true},
		{"bottom", 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sv := NewService([]int{4, 4}, lineLat, ServiceConfig{})
			submitVictims(t, sv, 9)
			sv.now = armed
			sv.preempted(9, 3)
			at := armed + admitDeadline(tc.class) - eventsim.Millisecond
			sv.now = at
			if got := !sv.allow(9); got != tc.protected {
				t.Errorf("victim preempted at %v ms protected at %v ms: %v, want %v", armed, at, got, tc.protected)
			}
		})
	}
}

// submitVictims submits sessions for the damping tests to preempt, and
// admits them with a Tick at time 0: a hold-down is armed only on a live
// session, as every session the scheduler can displace is.
func submitVictims(t *testing.T, sv *Service, ids ...SessionID) {
	t.Helper()
	for _, id := range ids {
		if _, err := sv.Submit(0, &Session{ID: id, Priority: 3, Root: 0, Members: []int{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sv.Tick(0); err != nil || sv.LiveSessions() < len(ids) {
		t.Fatalf("victims not admitted: err %v, %d live", err, sv.LiveSessions())
	}
}

// TestServiceDampingGuard unit-tests the token bucket and hold-down
// through the guard and hook the service installs on its scheduler.
func TestServiceDampingGuard(t *testing.T) {
	cfg := ServiceConfig{
		PreemptRate:  1, // tokens per virtual second
		PreemptBurst: 2,
	}
	sv := NewService([]int{4, 4}, lineLat, cfg)
	submitVictims(t, sv, 7, 8, 9)

	sv.now, sv.vetoed = 0, false
	if !sv.allow(7) || sv.vetoed {
		t.Fatal("full bucket must allow preemption")
	}
	sv.preempted(7, 3) // market-priority preemption: charges a token, arms hold-down
	if sv.tokens != 1 {
		t.Fatalf("tokens = %v after one market preemption, want 1", sv.tokens)
	}
	if sv.allow(7) || !sv.vetoed {
		t.Fatal("held-down victim must be vetoed and the denial recorded")
	}
	sv.preempted(8, MemberPriority) // member-priority: never charged
	if sv.tokens != 1 {
		t.Fatalf("member-priority preemption charged the bucket: tokens = %v", sv.tokens)
	}
	sv.preempted(9, 2)
	if sv.tokens != 0 {
		t.Fatalf("tokens = %v, want 0", sv.tokens)
	}
	sv.vetoed = false
	if sv.allow(10) || !sv.vetoed {
		t.Fatal("empty bucket must veto fresh victims")
	}

	// Refill at 1/s: after 1 s there is one token again, but the 2 s
	// hold-down on victim 7 is still armed.
	sv.refill(eventsim.Second)
	sv.now = eventsim.Second
	if !sv.allow(10) {
		t.Fatal("refilled bucket must allow a fresh victim")
	}
	if sv.allow(7) {
		t.Fatal("hold-down must outlast the refill")
	}
	// Past the hold-down horizon the victim is fair game again.
	sv.now = 3 * eventsim.Second
	if !sv.allow(7) {
		t.Fatal("expired hold-down still vetoing")
	}
	// A refill adds rate x the time since the last one: spend the
	// token, and half a second later there is exactly half of one.
	sv.now = eventsim.Second
	sv.preempted(10, 2)
	sv.refill(eventsim.Second + eventsim.Second/2)
	if sv.tokens != 0.5 {
		t.Fatalf("tokens = %v half a second after the last refill, want 0.5", sv.tokens)
	}
	// The bucket never overfills past its burst.
	sv.refill(100 * eventsim.Second)
	if sv.tokens != cfg.PreemptBurst {
		t.Fatalf("tokens = %v, want capped at burst %v", sv.tokens, cfg.PreemptBurst)
	}
}

// TestServiceDampingDefersPreemption runs the damper end to end: a P2
// session that needs the pool's only helper (held by a P3 session) is
// deferred while the token bucket is empty — counted as
// PreemptDeferred, not charged against its retry budget — then admitted
// once the bucket refills, arming the victim's hold-down.
func TestServiceDampingDefersPreemption(t *testing.T) {
	bounds := make([]int, 24)
	for _, m := range []int{11, 12, 13, 21, 22, 23} {
		bounds[m] = 1 // leaf members: parent link only, no relay capacity
	}
	bounds[10] = 1 // root of the P3 session
	bounds[20] = 1 // root of the P2 session
	bounds[5] = 4  // the pool's only helper capacity (parent + 3 children)
	cfg := ServiceConfig{
		PreemptRate:  1,
		PreemptBurst: 2,
	}
	sv := NewService(bounds, lineLat, cfg)

	// A's members have zero degree, so its relay chain must run through
	// helper host 5.
	a := &Session{ID: 1, Priority: 3, Root: 10, Members: []int{11, 12, 13}}
	if _, err := sv.Submit(0, a); err != nil {
		t.Fatal(err)
	}
	if err := sv.Tick(eventsim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if a.Tree == nil || !a.Tree.Contains(5) {
		t.Fatalf("P3 session did not recruit the helper (tree %v)", a.Tree)
	}

	// Drain the bucket, then ask for the same helper at higher priority.
	sv.tokens = 0
	sv.lastRefill = eventsim.Millisecond
	c := &Session{ID: 2, Priority: 2, Root: 20, Members: []int{21, 22, 23}}
	if _, err := sv.Submit(eventsim.Millisecond, c); err != nil {
		t.Fatal(err)
	}
	if err := sv.Tick(2 * eventsim.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := sv.Stats()
	if st.PreemptDeferred != 1 {
		t.Fatalf("PreemptDeferred = %d, want 1", st.PreemptDeferred)
	}
	if c.ctl.attempts != 0 {
		t.Fatalf("damping deferral consumed the retry budget: %+v", c.ctl)
	}
	if !a.Tree.Contains(5) || heldOn(sv.sc.reg, a.ID, 5) == 0 {
		t.Fatal("deferred plan displaced the victim anyway")
	}

	// Damping may defer a session 4*retryBudget times in a row and keep
	// it. Each deferral retries on the first rung, under 300 ms at P2.
	now := 2 * eventsim.Millisecond
	for deferred := 2; deferred <= 4*retryBudget; deferred++ {
		now += 400 * eventsim.Millisecond
		sv.tokens, sv.lastRefill = 0, now
		if err := sv.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	if got := sv.Stats().PreemptDeferred; got != 4*retryBudget || sv.sc.sessions[c.ID] == nil {
		t.Fatalf("after %d deferrals the session is live: %v; want %d and true",
			got, sv.sc.sessions[c.ID] != nil, 4*retryBudget)
	}

	// Two virtual seconds refill the bucket; the preemption now goes
	// through and the victim gets its hold-down.
	now += 2 * eventsim.Second
	if err := sv.Tick(now); err != nil {
		t.Fatal(err)
	}
	if c.Tree == nil || !c.Tree.Contains(5) {
		t.Fatalf("P2 session never obtained the helper (tree %v)", c.Tree)
	}
	if got := sv.sc.Totals().Preemptions; got != 1 {
		t.Fatalf("Preemptions = %d, want 1", got)
	}
	if until := a.ctl.heldDown; until <= now {
		t.Fatalf("victim hold-down not armed: %v", until)
	}
	if st := sv.Stats().Class[2]; st.Admitted != 1 {
		t.Fatalf("P2 admission stats = %+v, want Admitted 1", st)
	}
	if err := sv.sc.reg.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceNodeFailureQueueCleanup checks failure detection reaches
// queued (not yet admitted) sessions: a dead member is stripped from a
// queued roster, and a queued session rooted on the dead host is
// dropped and counted as RootDied.
func TestServiceNodeFailureQueueCleanup(t *testing.T) {
	sv := NewService([]int{2, 2, 2, 2}, lineLat, ServiceConfig{})
	s1 := &Session{ID: 1, Priority: 2, Root: 0, Members: []int{2, 3}}
	s2 := &Session{ID: 2, Priority: 3, Root: 2, Members: []int{3}}
	for _, s := range []*Session{s1, s2} {
		if _, err := sv.Submit(0, s); err != nil {
			t.Fatal(err)
		}
	}
	sv.NodeFailed(eventsim.Millisecond, 2)
	if len(s1.Members) != 1 || s1.Members[0] != 3 {
		t.Fatalf("dead member not stripped from queued roster: %v", s1.Members)
	}
	if sv.QueueDepth() != 1 {
		t.Fatalf("queue depth = %d, want 1 (root-dead entry dropped)", sv.QueueDepth())
	}
	if got := sv.Stats().Class[3].RootDied; got != 1 {
		t.Fatalf("RootDied = %d, want 1", got)
	}
	// Idempotent, like the scheduler-level handler.
	sv.NodeFailed(2*eventsim.Millisecond, 2)
	if got := sv.Stats().Class[3].RootDied; got != 1 {
		t.Fatalf("double failure double-counted RootDied: %d", got)
	}
	// The surviving entry admits and plans on the reduced roster.
	if err := sv.Tick(3 * eventsim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if s1.Tree == nil || s1.Tree.Contains(2) {
		t.Fatalf("queued session planned onto the dead host (tree %v)", s1.Tree)
	}
}

// TestRosterNamingAFailedHost: a roster that names a host the registry
// already holds dead gets the treatment NodeFailed gives a queued one.
// Submit strips a dead member (before, the session failed every plan
// on it, shed a bystander and then itself), refuses a dead root as
// RootDied, and AddMember refuses a dead host with an error naming it.
func TestRosterNamingAFailedHost(t *testing.T) {
	sv := NewService([]int{4, 4, 4, 4, 4, 4, 4, 4}, lineLat, ServiceConfig{})
	bystander := &Session{ID: 9, Priority: 3, Root: 0, Members: []int{1, 2}}
	if _, err := sv.Submit(0, bystander); err != nil {
		t.Fatal(err)
	}
	if err := sv.Tick(0); err != nil || bystander.Tree == nil {
		t.Fatalf("bystander not planned: err %v", err)
	}
	sv.NodeFailed(0, 5)

	s := &Session{ID: 1, Priority: 1, Root: 1, Members: []int{2, 5}, Sources: []int{5}}
	if d, err := sv.Submit(0, s); err != nil || d != Enqueued {
		t.Fatalf("Submit naming dead member 5: %v, %v", d, err)
	}
	for k := 1; k <= 80; k++ {
		if err := sv.Tick(eventsim.Time(k) * 250 * eventsim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	st := sv.Stats()
	if !slices.Equal(s.Members, []int{2}) || len(s.Sources) != 0 || s.Tree == nil || st.Class[1].Admitted != 1 {
		t.Errorf("session 1: members %v sources %v planned %v admitted %d; want [2], none, planned, 1",
			s.Members, s.Sources, s.Tree != nil, st.Class[1].Admitted)
	}
	if st.Class[1].ShedBudget+st.Class[3].ShedOverload != 0 || sv.Scheduler().Session(9) == nil {
		t.Errorf("sheds: budget %d overload %d; bystander live %v", st.Class[1].ShedBudget, st.Class[3].ShedOverload,
			sv.Scheduler().Session(9) != nil)
	}

	dead := &Session{ID: 2, Priority: 2, Root: 5, Members: []int{3}}
	if d, err := sv.Submit(0, dead); err != nil || d != Rejected {
		t.Errorf("Submit rooted on dead host 5: %v, %v; want rejected, no error", d, err)
	}
	if c := sv.Stats().Class[2]; c.Submitted != 1 || c.RootDied != 1 || c.Rejected != 0 || sv.QueueDepth() != 0 {
		t.Errorf("class 2 after a dead-root Submit: %+v, queue %d; want submitted and root-died 1", c, sv.QueueDepth())
	}
	first := &Session{ID: 4, Priority: 2, Root: 3, Members: []int{5, 4}}
	if _, err := sv.Submit(0, first); err != nil || !slices.Equal(first.Members, []int{4}) {
		t.Errorf("Submit naming dead host 5 first: members %v, err %v; want [4]", first.Members, err)
	}

	sc := NewScheduler([]int{4, 4, 4, 4, 4, 4, 4, 4}, lineLat, Config{})
	live := &Session{ID: 3, Priority: 2, Root: 0, Members: []int{1}}
	if err := sc.AddSession(live); err != nil {
		t.Fatal(err)
	}
	sc.NodeFailed(5)
	if err := sc.AddMember(3, 5); err == nil || !strings.Contains(err.Error(), "host 5") {
		t.Errorf("AddMember of dead host 5: err %v, want one naming host 5", err)
	}
	if !slices.Equal(live.Members, []int{1}) {
		t.Errorf("refused AddMember changed the roster: %v", live.Members)
	}
}

// TestAdmissionTimingsPinned pins the default admission timings bit for
// bit: the jittered backoff each class draws for its first five
// failures from a fixed seed, and the hold-down expiry a market
// preemption arms. Each backoff lies within ±20% of its rung, which
// starts at 1/16 of the class's deadline and doubles up to the whole
// deadline.
func TestAdmissionTimingsPinned(t *testing.T) {
	want := [NumClasses + 1][5]eventsim.Time{
		1: {145.94460796263817, 223.1507174048752, 448.2775134130595, 1164.624869748727, 2158.588435030006},
		2: {214.61559481917863, 470.8429396155415, 937.0728206560444, 1617.810222672534, 4258.50815482018},
		3: {491.76491468603615, 955.5836351933033, 1715.9640291957098, 4558.022489242455, 6867.457758567412},
	}
	sv := NewService([]int{4, 4}, lineLat, ServiceConfig{Seed: 7})
	for p := 1; p <= NumClasses; p++ {
		deadline := eventsim.Time(uint(1)<<uint(p)) * eventsim.Second
		for k := 1; k <= 5; k++ {
			got := sv.backoff(p, k)
			if got != want[p][k-1] {
				t.Errorf("class %d backoff(%d) = %v, want %v", p, k, got, want[p][k-1])
			}
			rung := min(deadline/16*eventsim.Time(uint(1)<<uint(k-1)), deadline)
			if got < 0.8*rung || got > 1.2*rung {
				t.Errorf("class %d backoff(%d) = %v, outside ±20%% of its %v rung", p, k, got, rung)
			}
		}
	}
	submitVictims(t, sv, 9)
	sv.now = 1234.5
	sv.preempted(9, 3)
	if got, want := sv.sc.sessions[9].ctl.heldDown, eventsim.Time(3234.5); got != want {
		t.Errorf("hold-down armed at 1234.5 ms expires at %v, want %v", got, want)
	}
}

// TestRosterRefusedAtTheDoor: Submit, AddSession and AddMember refuse a
// roster that names a host outside the pool or a host twice, or an
// extra source that is not a member other than the root or is listed
// twice, with an error, the way they refuse a bad priority; AddSession
// and AddMember refuse a failed host too. Admitted, a member past the
// pool panicked the next Tick, a negative root panicked Stabilize, a
// repeated member failed every plan until it was shed as an SLO miss
// charged to the planner, a bad source list failed every Tick from then
// on, starving the sessions queued beside it, and a failed host failed
// every Stabilize ("alm: member 2 degree bound 0 < 1").
func TestRosterRefusedAtTheDoor(t *testing.T) {
	bounds := []int{4, 4, 4, 4}
	for _, tc := range []struct {
		name  string
		admit func() error
	}{
		{"Submit member past the pool", func() error {
			_, err := NewService(bounds, lineLat, ServiceConfig{}).Submit(0, &Session{ID: 1, Priority: 1, Root: 0, Members: []int{99}})
			return err
		}},
		{"Submit negative root", func() error {
			_, err := NewService(bounds, lineLat, ServiceConfig{}).Submit(0, &Session{ID: 1, Priority: 1, Root: -1, Members: []int{1}})
			return err
		}},
		{"Submit repeated member", func() error {
			_, err := NewService(bounds, lineLat, ServiceConfig{}).Submit(0, &Session{ID: 1, Priority: 1, Root: 0, Members: []int{1, 1}})
			return err
		}},
		{"Submit root as a member", func() error {
			_, err := NewService(bounds, lineLat, ServiceConfig{}).Submit(0, &Session{ID: 1, Priority: 1, Root: 0, Members: []int{1, 0}})
			return err
		}},
		{"Submit source that is not a member", func() error {
			_, err := NewService(bounds, lineLat, ServiceConfig{}).Submit(0, &Session{ID: 1, Priority: 1, Root: 0, Members: []int{1, 2}, Sources: []int{3}})
			return err
		}},
		{"Submit root as a source", func() error {
			_, err := NewService(bounds, lineLat, ServiceConfig{}).Submit(0, &Session{ID: 1, Priority: 1, Root: 0, Members: []int{1, 2}, Sources: []int{0}})
			return err
		}},
		{"Submit source at the pool size", func() error {
			_, err := NewService(bounds, lineLat, ServiceConfig{}).Submit(0, &Session{ID: 1, Priority: 1, Root: 0, Members: []int{1, 2}, Sources: []int{4}})
			return err
		}},
		{"Submit repeated source", func() error {
			_, err := NewService(bounds, lineLat, ServiceConfig{}).Submit(0, &Session{ID: 1, Priority: 1, Root: 0, Members: []int{1, 2}, Sources: []int{2, 1, 2}})
			return err
		}},
		{"AddSession negative root", func() error {
			return NewScheduler(bounds, lineLat, Config{}).AddSession(&Session{ID: 1, Priority: 1, Root: -1, Members: []int{1}})
		}},
		{"AddSession member at the pool size", func() error {
			return NewScheduler(bounds, lineLat, Config{}).AddSession(&Session{ID: 1, Priority: 1, Root: 0, Members: []int{4}})
		}},
		{"AddSession repeated member", func() error {
			return NewScheduler(bounds, lineLat, Config{}).AddSession(&Session{ID: 1, Priority: 1, Root: 0, Members: []int{2, 1, 2}})
		}},
		{"AddSession root as a member", func() error {
			return NewScheduler(bounds, lineLat, Config{}).AddSession(&Session{ID: 1, Priority: 1, Root: 3, Members: []int{3}})
		}},
		{"AddSession failed member", func() error {
			sc := NewScheduler(bounds, lineLat, Config{})
			sc.NodeFailed(2)
			return sc.AddSession(&Session{ID: 1, Priority: 1, Root: 0, Members: []int{1, 2}})
		}},
		{"AddSession failed root", func() error {
			sc := NewScheduler(bounds, lineLat, Config{})
			sc.NodeFailed(0)
			return sc.AddSession(&Session{ID: 1, Priority: 1, Root: 0, Members: []int{1}})
		}},
		{"AddMember past the pool", func() error {
			sc := NewScheduler(bounds, lineLat, Config{})
			if err := sc.AddSession(&Session{ID: 1, Priority: 1, Root: 0, Members: []int{1}}); err != nil {
				t.Fatal(err)
			}
			return sc.AddMember(1, 99)
		}},
		{"AddMember negative host", func() error {
			sc := NewScheduler(bounds, lineLat, Config{})
			if err := sc.AddSession(&Session{ID: 1, Priority: 1, Root: 0, Members: []int{1}}); err != nil {
				t.Fatal(err)
			}
			return sc.AddMember(1, -1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.admit(); err == nil {
				t.Error("malformed roster admitted")
			}
		})
	}

	// A refused AddMember leaves the roster as it was, and a good one
	// still goes through.
	sc := NewScheduler(bounds, lineLat, Config{})
	s := &Session{ID: 1, Priority: 1, Root: 0, Members: []int{1}}
	if err := sc.AddSession(s); err != nil {
		t.Fatal(err)
	}
	if err := sc.AddMember(1, 1); err == nil || len(s.Members) != 1 {
		t.Fatalf("repeated AddMember: err %v, members %v", err, s.Members)
	}
	if err := sc.AddMember(1, 2); err != nil || len(s.Members) != 2 {
		t.Fatalf("good AddMember: err %v, members %v", err, s.Members)
	}
}
