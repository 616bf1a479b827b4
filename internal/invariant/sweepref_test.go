package invariant

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"p2ppool/internal/alm"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/sched"
)

// The session checks as they were written before the sweep read the
// ledger in place: every session's trees, node lists and allocations
// copied into fresh slices and maps per sweep. They are kept here,
// verbatim but for their names, as the model FuzzSweepMatchesReference
// holds the in-place checks to.

func refDirtySet(w *World) map[sched.SessionID]bool {
	out := make(map[sched.SessionID]bool)
	for _, id := range w.Sched.DirtySessions() {
		out[id] = true
	}
	return out
}

func refTreeValid(w *World) []Violation {
	if w.Sched == nil {
		return nil
	}
	dirty := refDirtySet(w)
	var out []Violation
	for _, s := range w.Sched.Sessions() {
		for _, st := range s.Trees() {
			if st.Tree == nil {
				if !dirty[s.ID] {
					out = append(out, Violation{Check: "alm/tree-valid", Host: st.Source,
						Detail: fmt.Sprintf("session %d source %d has no plan and is not pending one", s.ID, st.Source)})
				}
				continue
			}
			if err := st.Tree.Validate(nil); err != nil {
				out = append(out, Violation{Check: "alm/tree-valid", Host: st.Source,
					Detail: fmt.Sprintf("session %d source %d: %v", s.ID, st.Source, err)})
				continue
			}
			if st.Tree.Root != st.Source {
				out = append(out, Violation{Check: "alm/tree-valid", Host: st.Source,
					Detail: fmt.Sprintf("session %d tree rooted at %d, want source %d", s.ID, st.Tree.Root, st.Source)})
			}
			if dirty[s.ID] {
				continue
			}
			for _, m := range append([]int{s.Root}, s.Members...) {
				if m != st.Source && !st.Tree.Contains(m) {
					out = append(out, Violation{Check: "alm/tree-valid", Host: m,
						Detail: fmt.Sprintf("session %d member not covered by source %d's tree", s.ID, st.Source)})
				}
			}
		}
	}
	return out
}

func refDegreeBound(w *World) []Violation {
	if w.Sched == nil || len(w.Bounds) == 0 {
		return nil
	}
	var out []Violation
	for _, s := range w.Sched.Sessions() {
		load := make(map[int]int) // host -> summed degree across trees
		for _, st := range s.Trees() {
			if st.Tree == nil {
				continue
			}
			for _, v := range st.Tree.Nodes() {
				if v < 0 || v >= len(w.Bounds) {
					out = append(out, Violation{Check: "alm/degree-bound", Host: v,
						Detail: fmt.Sprintf("session %d source %d tree uses unknown host", s.ID, st.Source)})
					continue
				}
				load[v] += st.Tree.Degree(v)
			}
		}
		hosts := make([]int, 0, len(load))
		for v := range load {
			hosts = append(hosts, v)
		}
		sort.Ints(hosts)
		for _, v := range hosts {
			if load[v] > w.Bounds[v] {
				out = append(out, Violation{Check: "alm/degree-bound", Host: v,
					Detail: fmt.Sprintf("session %d loads host to degree %d across its trees, bound %d", s.ID, load[v], w.Bounds[v])})
			}
		}
	}
	return out
}

func refDeadInTree(w *World) []Violation {
	if w.Sched == nil {
		return nil
	}
	dirty := refDirtySet(w)
	reg := w.Sched.Registry()
	var out []Violation
	for _, s := range w.Sched.Sessions() {
		if dirty[s.ID] {
			continue
		}
		for _, st := range s.Trees() {
			if st.Tree == nil {
				continue
			}
			for _, v := range st.Tree.Nodes() {
				if reg.Dead(v) {
					out = append(out, Violation{Check: "alm/dead-in-tree", Host: v,
						Detail: fmt.Sprintf("settled session %d source %d tree uses registry-dead host", s.ID, st.Source)})
					continue
				}
				if age, ok := w.downFor(v); ok && w.RepairLag > 0 && age > w.RepairLag {
					out = append(out, Violation{Check: "alm/dead-in-tree", Host: v,
						Detail: fmt.Sprintf("settled session %d source %d tree uses host down for %.0fms (repair lag %.0fms)",
							s.ID, st.Source, float64(age), float64(w.RepairLag))})
				}
			}
		}
	}
	return out
}

func refLedger(w *World) []Violation {
	if w.Sched == nil {
		return nil
	}
	dirty := refDirtySet(w)
	reg := w.Sched.Registry()
	known := make(map[sched.SessionID]bool)
	listed := make(map[sched.SessionID]map[int]bool) // session -> hosts its root lists
	trees := make(map[sched.SessionID]map[int]int)   // session -> host -> summed degree
	for _, s := range w.Sched.Sessions() {
		known[s.ID] = true
		listed[s.ID] = make(map[int]bool)
		s.Held(func(h int) bool { listed[s.ID][h] = true; return true })
		if dirty[s.ID] {
			continue
		}
		deg := make(map[int]int)
		planned := false
		for _, st := range s.Trees() {
			if st.Tree == nil {
				continue
			}
			planned = true
			for _, v := range st.Tree.Nodes() {
				if d := st.Tree.Degree(v); d > 0 {
					deg[v] += d
				}
			}
		}
		if !planned {
			continue
		}
		trees[s.ID] = deg
	}
	held := make(map[sched.SessionID]map[int]int)
	var out []Violation
	for h := 0; h < reg.NumHosts(); h++ {
		for _, a := range reg.Table(h).Allocations() {
			if !known[a.Session] {
				out = append(out, Violation{Check: "sched/ledger", Host: h,
					Detail: fmt.Sprintf("allocation of %d slots for unknown session %d", a.Slots, a.Session)})
				continue
			}
			if !listed[a.Session][h] {
				out = append(out, Violation{Check: "sched/ledger", Host: h,
					Detail: fmt.Sprintf("session %d holds slots on a host its root does not list", a.Session)})
			}
			if held[a.Session] == nil {
				held[a.Session] = make(map[int]int)
			}
			held[a.Session][h] += a.Slots
		}
	}
	for _, s := range w.Sched.Sessions() {
		deg, settled := trees[s.ID]
		if !settled {
			continue
		}
		// Compare only over hosts either side actually names — the sorted
		// union of tree-degree and holdings keys. Any host outside both
		// trivially agrees (0 == 0), so scanning the whole pool per
		// session would make the sweep O(sessions × hosts): at load-study
		// scale (thousands of sessions, thousands of hosts, a sweep every
		// few virtual seconds) that is the audit's entire budget.
		hosts := make([]int, 0, len(deg)+len(held[s.ID]))
		for h := range deg {
			hosts = append(hosts, h)
		}
		for h := range held[s.ID] {
			if _, both := deg[h]; !both {
				hosts = append(hosts, h)
			}
		}
		sort.Ints(hosts)
		for _, h := range hosts {
			want := deg[h]
			got := held[s.ID][h]
			if want != got {
				out = append(out, Violation{Check: "sched/ledger", Host: h,
					Detail: fmt.Sprintf("session %d holds %d slots, tree degree is %d", s.ID, got, want)})
			}
		}
	}
	return out
}

func refConservation(w *World) []Violation {
	if w.Sched == nil {
		return nil
	}
	reg := w.Sched.Registry()
	var out []Violation
	if err := reg.CheckInvariants(); err != nil {
		out = append(out, Violation{Check: "sched/conservation", Host: -1, Detail: err.Error()})
	}
	for h := 0; h < reg.NumHosts(); h++ {
		t := reg.Table(h)
		if len(w.Bounds) == reg.NumHosts() && t.Bound() != w.Bounds[h] {
			out = append(out, Violation{Check: "sched/conservation", Host: h,
				Detail: fmt.Sprintf("registry bound %d drifted from physical bound %d", t.Bound(), w.Bounds[h])})
		}
		if reg.Dead(h) && t.Used() > 0 {
			out = append(out, Violation{Check: "sched/conservation", Host: h,
				Detail: fmt.Sprintf("dead host still has %d slots allocated", t.Used())})
		}
	}
	return out
}

func refReplans(w *World) []Violation {
	if w.Sched == nil || w.ExpectedReplans == nil {
		return nil
	}
	sum := 0
	for _, s := range w.Sched.Sessions() {
		sum += s.Replans
	}
	if want := w.ExpectedReplans(); sum != want {
		return []Violation{{Check: "sched/replans", Host: -1,
			Detail: fmt.Sprintf("sessions report %d replans, harness observed %d failures", sum, want)}}
	}
	return nil
}

// refRegistry is the standard registry with the session checks swapped
// for the model's, in the same order under the same names.
func refRegistry() *Registry {
	ref := map[string]func(*World) []Violation{
		"alm/tree-valid":     refTreeValid,
		"alm/degree-bound":   refDegreeBound,
		"alm/dead-in-tree":   refDeadInTree,
		"sched/ledger":       refLedger,
		"sched/conservation": refConservation,
		"sched/replans":      refReplans,
	}
	r := &Registry{}
	for _, c := range standardChecks() {
		if fn, ok := ref[c.Name]; ok {
			c.Fn = fn
		}
		r.Add(c)
	}
	return r
}

// sweepWorld is a small scheduler on random points of a plane, the
// harness state a fuzz script corrupts, and the World that reads both.
type sweepWorld struct {
	r         *rand.Rand
	n         int
	sc        *sched.Scheduler
	bounds    []int
	downSince map[int]eventsim.Time
	w         *World
	nextID    sched.SessionID
}

func newSweepWorld(seed int64, n int) *sweepWorld {
	r := rand.New(rand.NewSource(seed))
	xs, ys := make([]float64, n), make([]float64, n)
	for h := range xs {
		xs[h], ys[h] = 200*r.Float64(), 200*r.Float64()
	}
	lat := func(a, b int) float64 {
		if a == b {
			return 0
		}
		return 5 + math.Hypot(xs[a]-xs[b], ys[a]-ys[b])
	}
	bounds := alm.PaperDegrees(n, r)
	for h := range bounds {
		bounds[h] += 2 // room for a conference's per-source links
	}
	sw := &sweepWorld{r: r, n: n, bounds: bounds, downSince: make(map[int]eventsim.Time)}
	sw.sc = sched.NewScheduler(bounds, lat, sched.Config{ScoreLatency: lat, MetricScore: true})
	sw.w = &World{
		Now:    100 * eventsim.Second,
		Sched:  sw.sc,
		Bounds: append([]int(nil), bounds...),
		DownSince: func(h int) (eventsim.Time, bool) {
			t, ok := sw.downSince[h]
			return t, ok
		},
		RepairLag:       3 * eventsim.Second,
		ExpectedReplans: func() int { return sw.sc.Totals().Replans },
	}
	return sw
}

// addSession submits a random roster of 2-6 hosts, a conference with up
// to three extra sources one time in three.
func (sw *sweepWorld) addSession() {
	sw.nextID++
	perm := sw.r.Perm(sw.n)[:2+sw.r.Intn(5)]
	s := &sched.Session{ID: sw.nextID, Priority: 1 + sw.r.Intn(sched.NumClasses), Root: perm[0],
		Members: append([]int(nil), perm[1:]...)}
	if sw.r.Intn(3) == 0 {
		for _, m := range s.Members[:sw.r.Intn(min(3, len(s.Members))+1)] {
			s.Sources = append(s.Sources, m)
		}
	}
	_ = sw.sc.AddSession(s) // a dead member is fine; the sweep reads what it gets
}

// pick returns the i-th live session in ID order, or nil.
func (sw *sweepWorld) pick(i int) *sched.Session {
	ss := sw.sc.Sessions()
	if len(ss) == 0 {
		return nil
	}
	return ss[i%len(ss)]
}

// step applies one scripted operation: a is the operation, b and c
// pick hosts, sessions and amounts.
func (sw *sweepWorld) step(a, b, c byte) {
	h := int(b) % sw.n
	switch a % 16 {
	case 0, 1:
		sw.addSession()
	case 2:
		_, _ = sw.sc.Stabilize()
	case 3:
		sw.sc.NodeFailed(h)
	case 4:
		if sw.sc.NodeRecovered(h) {
			sw.sc.Rejoin(h)
		}
	case 5:
		if s := sw.pick(int(c)); s != nil {
			sw.sc.RemoveSession(s.ID)
		}
	case 6:
		// A reservation the session's root never made, for a known
		// session or one the scheduler never heard of.
		sid := sched.SessionID(int(c)%int(sw.nextID+3) + 1)
		_, _ = sw.sc.Registry().Reserve(h, 1+int(c)%3, int(c>>4)%(sched.NumClasses+1), sid, nil)
	case 7:
		if s := sw.pick(int(c)); s != nil {
			sw.sc.Registry().Release(s.ID, []int{h, (h + 1) % sw.n})
		}
	case 8:
		sw.sc.Registry().SetDead(h) // without NodeFailed: trees keep the host
	case 9:
		// Grow a live tree by one node, behind the ledger's back.
		if s := sw.pick(int(c)); s != nil {
			srcs := s.SourceList()
			if t := s.TreeFor(srcs[int(c>>4)%len(srcs)]); t != nil && !t.Contains(h) {
				nodes := t.Nodes()
				_ = t.Attach(h, nodes[int(c)%len(nodes)])
			}
		}
	case 10:
		if s := sw.pick(int(c)); s != nil {
			if c&1 == 0 || len(s.SrcTrees) == 0 {
				s.Tree = nil
			} else {
				for src := range s.SrcTrees {
					s.SrcTrees[src] = nil
					break
				}
			}
		}
	case 11:
		if h < len(sw.w.Bounds) {
			sw.w.Bounds[h] = int(c)%5 - 1
		}
	case 12:
		switch c % 4 {
		case 0:
			sw.w.Bounds = sw.w.Bounds[:min(h, len(sw.w.Bounds))]
		case 1:
			sw.w.Bounds = append(sw.w.Bounds[:len(sw.w.Bounds):len(sw.w.Bounds)], 5)
		default:
			sw.w.Bounds = append([]int(nil), sw.bounds...)
		}
	case 13:
		sw.downSince[h] = eventsim.Time(c) * eventsim.Second / 2 // up to 127 s: lag 3 s at t=100 s
	case 14:
		sw.sc.Reschedule()
	case 15:
		if s := sw.pick(int(c)); s != nil {
			if c&1 == 0 {
				_ = sw.sc.AddMember(s.ID, h)
			} else if len(s.Members) > 0 {
				_ = sw.sc.RemoveMember(s.ID, s.Members[int(c>>1)%len(s.Members)])
			}
		}
	}
}

// FuzzSweepMatchesReference builds a random scheduler — single- and
// multi-source sessions, some planned, some pending — then applies a
// script of scheduler operations and corruptions through exported APIs
// only (reservations its sessions never made, releases, hosts killed
// behind the scheduler's back, nodes attached to live trees, trees
// dropped, bounds altered, hosts down past the repair lag), and after
// every step requires the registry's sweep and the model's to return
// the same violations in the same order, in both phases. The seed
// corpus runs as a plain test.
func FuzzSweepMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{2, 0, 0})
	f.Add(int64(2), []byte{2, 0, 0, 6, 7, 1, 6, 9, 40, 9, 3, 2, 10, 0, 1, 11, 5, 1, 3, 17, 0, 2, 0, 0})
	f.Add(int64(3), []byte{2, 0, 0, 8, 11, 0, 13, 12, 20, 0, 0, 0, 14, 0, 0, 15, 4, 0, 7, 30, 2, 12, 20, 0, 2, 0, 0})
	f.Add(int64(4), []byte{1, 0, 0, 2, 0, 0, 3, 5, 0, 3, 6, 0, 5, 0, 3, 4, 5, 0, 2, 0, 0, 12, 30, 1, 6, 2, 250})
	f.Add(int64(5), []byte{2, 0, 0, 9, 1, 17, 9, 2, 33, 10, 0, 3, 6, 4, 0, 2, 0, 0, 8, 9, 0, 2, 0, 0, 11, 9, 3})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		sw := newSweepWorld(seed, 48)
		for i := 0; i < 8; i++ {
			sw.addSession()
		}
		got, want := NewRegistry(), refRegistry()
		check := func(step int) {
			t.Helper()
			for _, phase := range []Phase{Continuous, Eventual} {
				g, w := got.Sweep(sw.w, phase), want.Sweep(sw.w, phase)
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("step %d phase %d: sweep\n%v\nmodel\n%v", step, phase, g, w)
				}
			}
		}
		check(-1)
		// Each step sweeps twice over the whole pool; a script is cut at
		// 64 steps, past which inputs reach nothing new.
		for i := 0; i+2 < min(len(script), 3*64); i += 3 {
			sw.step(script[i], script[i+1], script[i+2])
			check(i / 3)
		}
	})
}

// TestCleanSweepAllocationsFlat: the session checks read the scheduler
// and the ledger in place, so a continuous sweep of a clean world
// allocates no more at 400 live sessions than at 100, and next to
// nothing at either.
func TestCleanSweepAllocationsFlat(t *testing.T) {
	sw := newSweepWorld(41, 2000)
	sw.w.ExpectedReplans = nil
	reg := NewRegistry()
	allocsAt := func(live int) float64 {
		for len(sw.sc.Sessions()) < live {
			sw.addSession()
			if _, err := sw.sc.Stabilize(); err != nil {
				for _, id := range sw.sc.DirtySessions() {
					sw.sc.RemoveSession(id) // keep the world clean: planned and settled
				}
			}
		}
		if vs := reg.Sweep(sw.w, Continuous); len(vs) > 0 {
			t.Fatalf("%d live sessions: %d violations, first %s", live, len(vs), vs[0])
		}
		return testing.AllocsPerRun(20, func() { reg.Sweep(sw.w, Continuous) })
	}
	at100, at400 := allocsAt(100), allocsAt(400)
	if at100 != at400 || at400 > 32 {
		t.Errorf("a clean sweep allocates %.0f objects at 100 live sessions and %.0f at 400; want the same, at most 32", at100, at400)
	}
}
