package sched

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"p2ppool/internal/eventsim"
)

// TestServiceSoakPinned pins the control plane's whole observable
// outcome on one seeded soak: 64 hosts on a plane, 200 submits at mixed
// priorities on overlapping rosters (some with extra sources), sessions
// ended along the way, and ten flaky hosts failing and recovering, all
// ticked every 250 ms. The digest covers Stats, AdmitLatencies, the
// scheduler's Totals, every live session's parent map for each of its
// trees, and every host's allocations sorted by session and priority.
// A refactor of the ledger or the per-session bookkeeping must leave it
// unchanged; only a deliberate behaviour change re-records it.
func TestServiceSoakPinned(t *testing.T) {
	const want = "totals={Plans:166 Replans:30 Preemptions:22 Repairs:6 NodeFailures:19 NodeRecoveries:11} digest=f68c22c31746cefa"
	const (
		hosts   = 64
		submits = 200
		flaky   = 10
		tick    = 250 * eventsim.Millisecond
		horizon = 100 * eventsim.Second
	)
	r := rand.New(rand.NewSource(5))
	w := newPlaneWorld(hosts, 200, r)
	for h := range w.bounds {
		w.bounds[h] += 2 // room for a host to sit on a few rosters at once
	}
	sv := NewService(w.bounds, w.lat, ServiceConfig{Sched: Config{ScoreLatency: w.lat, MetricScore: true}, Seed: 5})

	arrivals := make([]eventsim.Time, submits)
	for i := range arrivals {
		arrivals[i] = eventsim.Time(r.Float64()) * (horizon - 10*eventsim.Second)
	}
	slices.Sort(arrivals)
	dead := make([]bool, hosts)
	flakyHosts := r.Perm(hosts)[:flaky]
	next := 0
	for now := tick; now <= horizon; now += tick {
		for ; next < submits && arrivals[next] < now; next++ {
			var alive []int
			for _, h := range r.Perm(hosts) {
				if !dead[h] {
					alive = append(alive, h)
				}
			}
			roster := alive[:2+r.Intn(5)]
			s := &Session{ID: SessionID(next + 1), Priority: 1 + r.Intn(NumClasses), Root: roster[0],
				Members: append([]int(nil), roster[1:]...)}
			if len(s.Members) >= 3 && r.Intn(5) == 0 {
				s.Sources = append(s.Sources, s.Members[:1+r.Intn(2)]...)
			}
			if _, err := sv.Submit(arrivals[next], s); err != nil {
				t.Fatalf("submit %d: %v", s.ID, err)
			}
		}
		if next > 0 && r.Intn(3) > 0 {
			sv.EndSession(SessionID(next - r.Intn(min(next, 16))))
		}
		if r.Intn(100) < 8 {
			h := flakyHosts[r.Intn(flaky)]
			if dead[h] {
				sv.NodeRecovered(now-tick/2, h)
			} else {
				sv.NodeFailed(now-tick/2, h)
			}
			dead[h] = !dead[h]
		}
		if err := sv.Tick(now); err != nil {
			t.Fatalf("tick at %v: %v", now, err)
		}
		if err := sv.Scheduler().Registry().CheckInvariants(); err != nil {
			t.Fatalf("tick at %v: %v", now, err)
		}
	}

	h := fnv.New64a()
	fmt.Fprintf(h, "stats=%+v\nlat=%v\n", sv.Stats(), sv.AdmitLatencies())
	for _, s := range sv.Scheduler().Sessions() {
		fmt.Fprintf(h, "session %d members=%v sources=%v replans=%d\n", s.ID, s.Members, s.Sources, s.Replans)
		for _, st := range s.Trees() {
			fmt.Fprintf(h, " source %d:", st.Source)
			if st.Tree == nil {
				continue
			}
			for _, v := range st.Tree.Nodes() {
				p, _ := st.Tree.Parent(v)
				fmt.Fprintf(h, " %d<-%d", v, p)
			}
		}
	}
	reg := sv.Scheduler().Registry()
	for v := 0; v < reg.NumHosts(); v++ {
		var allocs []allocation
		reg.Table(v).EachAllocation(func(sid SessionID, priority, slots int) bool {
			allocs = append(allocs, allocation{sid, priority, slots})
			return true
		})
		slices.SortFunc(allocs, func(a, b allocation) int {
			return cmp.Or(cmp.Compare(a.Session, b.Session), cmp.Compare(a.Priority, b.Priority))
		})
		fmt.Fprintf(h, "host %d dead=%v allocs=%v\n", v, reg.Dead(v), allocs)
	}
	got := fmt.Sprintf("totals=%+v digest=%016x", sv.Scheduler().Totals(), h.Sum64())
	if got != want {
		t.Errorf("soak outcome moved:\n got: %s\nwant: %s", got, want)
	}
}
