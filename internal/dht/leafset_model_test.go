package dht

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"p2ppool/internal/eventsim"
	"p2ppool/internal/ids"
	"p2ppool/internal/transport"
)

// leafsetModel is the naive reference for Node's membership state: a
// map of every candidate seen, re-sorted and re-pruned from scratch on
// every change. It is the implementation Node used before the sorted
// table, kept verbatim as the oracle the table is fuzzed against.
type leafsetModel struct {
	self Entry
	cfg  Config

	neighbors     map[ids.ID]*neighbor
	tombstones    map[ids.ID]eventsim.Time
	suspects      map[ids.ID]suspect
	suspectCursor int
	sorted        []Entry

	// The finger prober's bookkeeping before PR 25, verbatim: every
	// contact in one map, pruned on each failure sweep, read when a
	// probe expires.
	fingers     []Entry
	lastContact map[ids.ID]eventsim.Time
	fingerProbe map[ids.ID]eventsim.Time
	probeCursor int
	// mutation names a seeded fault in the model: "tie" counts a contact
	// in the probe's own instant as silence, "memory" never forgets a
	// contact. The finger seeds must tell either from the node.
	mutation string
}

func newLeafsetModel(self Entry, cfg Config) *leafsetModel {
	m := &leafsetModel{
		self:        self,
		cfg:         cfg.withDefaults(),
		neighbors:   make(map[ids.ID]*neighbor),
		tombstones:  make(map[ids.ID]eventsim.Time),
		suspects:    make(map[ids.ID]suspect),
		lastContact: make(map[ids.ID]eventsim.Time),
		fingerProbe: make(map[ids.ID]eventsim.Time),
	}
	m.fingers = make([]Entry, m.cfg.Fingers)
	for i := range m.fingers {
		m.fingers[i] = NoEntry
	}
	return m
}

func (m *leafsetModel) touch(now eventsim.Time, e Entry) {
	if e.Addr == m.self.Addr || e.IsZero() {
		return
	}
	delete(m.tombstones, e.ID)
	delete(m.suspects, e.ID)
	m.lastContact[e.ID] = now
	if nb, ok := m.neighbors[e.ID]; ok {
		nb.lastHeard = now
		return
	}
	m.neighbors[e.ID] = &neighbor{entry: e, lastHeard: now}
	m.rebuild()
}

func (m *leafsetModel) merge(now eventsim.Time, entries ...Entry) {
	changed := false
	for _, e := range entries {
		if e.IsZero() || e.Addr == m.self.Addr {
			continue
		}
		if exp, dead := m.tombstones[e.ID]; dead {
			if now < exp {
				continue
			}
			delete(m.tombstones, e.ID)
		}
		if _, ok := m.neighbors[e.ID]; !ok {
			m.neighbors[e.ID] = &neighbor{entry: e, lastHeard: now}
			delete(m.suspects, e.ID)
			changed = true
		}
	}
	if changed {
		m.rebuild()
	}
}

func (m *leafsetModel) bury(now eventsim.Time, id ids.ID) {
	m.tombstones[id] = now + 2*m.cfg.FailureTimeout
	delete(m.suspects, id)
	m.purgeFinger(id)
	if _, ok := m.neighbors[id]; !ok {
		return
	}
	delete(m.neighbors, id)
	m.rebuild()
}

func (m *leafsetModel) checkFailures(now eventsim.Time) {
	for id, at := range m.lastContact {
		if now-at > 8*m.cfg.FailureTimeout && m.mutation != "memory" {
			delete(m.lastContact, id)
		}
	}
	var dead []ids.ID
	for id, nb := range m.neighbors {
		if now-nb.lastHeard > m.cfg.FailureTimeout {
			dead = append(dead, id)
		}
	}
	if len(dead) == 0 {
		return
	}
	for _, id := range dead {
		m.tombstones[id] = now + 2*m.cfg.FailureTimeout
		m.suspects[id] = suspect{entry: m.neighbors[id].entry, since: now}
		m.purgeFinger(id)
		delete(m.neighbors, id)
	}
	m.rebuild()
}

// probeOneSuspect returns the suspect the tick re-probes, or NoEntry.
func (m *leafsetModel) probeOneSuspect(now eventsim.Time) Entry {
	if len(m.suspects) == 0 {
		return NoEntry
	}
	alive := make([]ids.ID, 0, len(m.suspects))
	for id, s := range m.suspects {
		if now-s.since > m.cfg.suspectTTL() {
			delete(m.suspects, id)
			continue
		}
		alive = append(alive, id)
	}
	if len(alive) == 0 {
		return NoEntry
	}
	sort.Slice(alive, func(i, j int) bool { return alive[i] < alive[j] })
	m.suspectCursor = (m.suspectCursor + 1) % len(alive)
	return m.suspects[alive[m.suspectCursor]].entry
}

func (m *leafsetModel) purgeFinger(id ids.ID) {
	for i, f := range m.fingers {
		if !f.IsZero() && f.ID == id {
			m.fingers[i] = NoEntry
		}
	}
}

// probeOneFinger returns the finger the tick probes, or NoEntry.
func (m *leafsetModel) probeOneFinger(now eventsim.Time) Entry {
	for id, sentAt := range m.fingerProbe {
		if now-sentAt <= m.cfg.FailureTimeout {
			continue
		}
		if heard, ok := m.lastContact[id]; !ok || heard < sentAt || m.mutation == "tie" && heard == sentAt {
			m.tombstones[id] = now + 2*m.cfg.FailureTimeout
			m.purgeFinger(id)
		}
		delete(m.fingerProbe, id)
	}
	if len(m.fingers) == 0 {
		return NoEntry
	}
	for tries := 0; tries < len(m.fingers); tries++ {
		m.probeCursor = (m.probeCursor + 1) % len(m.fingers)
		f := m.fingers[m.probeCursor]
		if f.IsZero() {
			continue
		}
		if _, ok := m.neighbors[f.ID]; ok {
			return NoEntry // already heartbeated as a leafset member
		}
		if _, pending := m.fingerProbe[f.ID]; pending {
			return NoEntry
		}
		m.fingerProbe[f.ID] = now
		return f
	}
	return NoEntry
}

// rebuild recomputes the sorted leafset view, pruning neighbors that no
// longer qualify for either side.
func (m *leafsetModel) rebuild() {
	all := make([]Entry, 0, len(m.neighbors))
	for _, nb := range m.neighbors {
		all = append(all, nb.entry)
	}
	sort.Slice(all, func(i, j int) bool {
		return ids.Dist(m.self.ID, all[i].ID) < ids.Dist(m.self.ID, all[j].ID)
	})
	r := m.cfg.LeafsetRadius
	keep := make(map[ids.ID]bool, 2*r)
	for i := 0; i < len(all) && i < r; i++ {
		keep[all[i].ID] = true            // r closest clockwise
		keep[all[len(all)-1-i].ID] = true // r closest counterclockwise
	}
	for id := range m.neighbors {
		if !keep[id] {
			delete(m.neighbors, id)
		}
	}
	m.sorted = m.sorted[:0]
	for _, e := range all {
		if keep[e.ID] {
			m.sorted = append(m.sorted, e)
		}
	}
}

// clockNet is a Network whose clock the test sets by hand; it records
// where messages were sent and delivers nothing.
type clockNet struct {
	now  eventsim.Time
	rng  *rand.Rand
	sent []transport.Addr
}

func (c *clockNet) Attach(transport.Addr, transport.Handler) {}
func (c *clockNet) Detach(transport.Addr)                    {}
func (c *clockNet) Now() eventsim.Time                       { return c.now }
func (c *clockNet) Rand() *rand.Rand                         { return c.rng }
func (c *clockNet) After(eventsim.Time, func()) transport.CancelFunc {
	return func() bool { return false }
}
func (c *clockNet) Send(_, to transport.Addr, _ int, _ transport.Message) {
	c.sent = append(c.sent, to)
}

// The fuzzed node sits mid-ring so candidates wrap around zero; 64
// candidate IDs spread evenly keep collisions (duplicates, re-gossip of
// evicted or buried members) frequent at every radius.
const (
	fuzzSelfID     = ids.ID(0x8000_0000_0000_0000)
	fuzzCandidates = 64
	fuzzFingers    = 4
	// Op bytes from fingerOps up set fingers and run ticks; the bytes
	// below it mean what they meant before the prober was modelled.
	fingerOps = 176
)

func fuzzCandidate(b byte) Entry {
	i := uint64(b) % fuzzCandidates
	return Entry{ID: ids.ID(i<<58 | 0x2a), Addr: transport.Addr(1 + i)}
}

// leafsetScript decodes fuzz bytes into membership operations.
type leafsetScript struct {
	data []byte
}

func (s *leafsetScript) next() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

// entry draws a candidate, the node itself, the zero entry, or a known
// ID arriving under a second address.
func (s *leafsetScript) entry(self Entry) Entry {
	switch b := s.next(); b % 67 {
	case 64:
		return self
	case 65:
		return NoEntry
	case 66:
		e := fuzzCandidate(s.next())
		e.Addr += 1000
		return e
	default:
		return fuzzCandidate(b)
	}
}

// runLeafsetScript fails the test at the first difference
// leafsetScriptDiff finds.
func runLeafsetScript(t *testing.T, radius int, data []byte) {
	if d := leafsetScriptDiff(radius, data, ""); d != "" {
		t.Fatal(d)
	}
}

// leafsetScriptDiff drives a Node and the model (with the given
// mutation, "" for none) through the same script and describes the
// first step after which they differ in the leafset, any entry's
// lastHeard, the suspect or tombstone set, the suspect chosen for re-probing, the finger table, the
// pending finger probes or the finger probed; "" if they never do.
func leafsetScriptDiff(radius int, data []byte, mutation string) string {
	cfg := Config{LeafsetRadius: radius, Fingers: fuzzFingers}
	net := &clockNet{rng: rand.New(rand.NewSource(1))}
	self := Entry{ID: fuzzSelfID, Addr: 0}
	n := NewNode(net, self.ID, self.Addr, cfg)
	m := newLeafsetModel(self, cfg)
	m.mutation = mutation

	s := &leafsetScript{data: data}
	for step := 0; len(s.data) > 0; step++ {
		var op string
		net.sent = net.sent[:0]
		b := s.next()
		kind := int(b % 11)
		if b >= fingerOps {
			kind = 11 + int(b-fingerOps)%2
		}
		switch kind {
		case 0, 1, 2:
			e := s.entry(self)
			op = fmt.Sprintf("touch %v", e)
			n.touch(e)
			m.touch(net.now, e)
		case 3, 4, 5:
			batch := make([]Entry, s.next()%7)
			for i := range batch {
				batch[i] = s.entry(self)
			}
			op = fmt.Sprintf("merge %v", batch)
			n.merge(batch...)
			m.merge(net.now, batch...)
		case 6:
			id := fuzzCandidate(s.next()).ID
			op = fmt.Sprintf("bury %v", id)
			n.bury(id)
			m.bury(net.now, id)
		case 7:
			// The finger prober tombstones a silent finger without
			// checking whether gossip has since made it a member.
			id := fuzzCandidate(s.next()).ID
			op = fmt.Sprintf("tombstone %v", id)
			n.tombstones[id] = net.now + 2*n.cfg.FailureTimeout
			m.tombstones[id] = net.now + 2*m.cfg.FailureTimeout
		case 8:
			d := eventsim.Time(s.next()) * 16
			op = fmt.Sprintf("advance %v", d)
			net.now += d
		case 9:
			op = "checkFailures"
			n.checkFailures()
			m.checkFailures(net.now)
		case 10:
			op = "probeOneSuspect"
			n.probeOneSuspect()
			var want []transport.Addr
			if e := m.probeOneSuspect(net.now); !e.IsZero() {
				want = append(want, e.Addr)
			}
			if !slices.Equal(net.sent, want) {
				return fmt.Sprintf("step %d (%s): probed %v, model %v", step, op, net.sent, want)
			}
		case 11:
			// A fingerResult: any entry but the node itself.
			i, e := int(s.next())%fuzzFingers, s.entry(self)
			if e.Addr == self.Addr {
				e = NoEntry
			}
			op = fmt.Sprintf("finger[%d] = %v", i, e)
			n.fingers[i] = e
			m.fingers[i] = e
		case 12:
			// A heartbeat tick's failure sweep and finger probe, in the
			// order heartbeatTick runs them.
			op = "tick"
			n.checkFailures()
			m.checkFailures(net.now)
			net.sent = net.sent[:0]
			n.probeOneFinger(&heartbeat{From: self, SentAt: net.now})
			var want []transport.Addr
			if e := m.probeOneFinger(net.now); !e.IsZero() {
				want = append(want, e.Addr)
			}
			if !slices.Equal(net.sent, want) {
				return fmt.Sprintf("step %d (%s): probed %v, model %v", step, op, net.sent, want)
			}
		}
		if got := n.Leafset(); !slices.Equal(got, m.sorted) {
			return fmt.Sprintf("step %d (%s): leafset\n got  %v\n want %v", step, op, got, m.sorted)
		}
		for _, nb := range n.table {
			if want := m.neighbors[nb.entry.ID].lastHeard; nb.lastHeard != want {
				return fmt.Sprintf("step %d (%s): %v lastHeard %v, model %v", step, op, nb.entry, nb.lastHeard, want)
			}
		}
		if !maps.Equal(n.suspects, m.suspects) {
			return fmt.Sprintf("step %d (%s): suspects\n got  %v\n want %v", step, op, n.suspects, m.suspects)
		}
		if !maps.Equal(n.tombstones, m.tombstones) {
			return fmt.Sprintf("step %d (%s): tombstones\n got  %v\n want %v", step, op, n.tombstones, m.tombstones)
		}
		if !slices.Equal(n.fingers, m.fingers) {
			return fmt.Sprintf("step %d (%s): fingers\n got  %v\n want %v", step, op, n.fingers, m.fingers)
		}
		pending := make(map[ids.ID]eventsim.Time, len(n.probes))
		for _, p := range n.probes {
			pending[p.id] = p.sentAt
		}
		if len(pending) != len(n.probes) || !maps.Equal(pending, m.fingerProbe) {
			return fmt.Sprintf("step %d (%s): pending probes\n got  %+v\n want %v", step, op, n.probes, m.fingerProbe)
		}
	}
	return ""
}

var fuzzRadii = [...]int{1, 2, 8}

// fingerSeeds are the finger prober's two edge cases, at radius 1 so a
// far finger never enters the full leafset. "tie": the finger is heard
// earlier in the instant its probe goes out, which answers the probe
// (the old check, heard < sentAt, was strict). "forgotten": the finger
// answers, then the next tick comes over 8 × FailureTimeout later, and
// its expiry check must no longer count that answer.
var fingerSeeds = map[string][]byte{
	"tie": {
		0, 33, 0, 31, // fill the leafset: successor, predecessor
		176, 0, 10, // fingers[0] = a far node
		0, 10, // heard from it ...
		177,         // ... then probed, in the same instant
		8, 255, 177, // expiry: answered, kept; probed again
		8, 255, 177, // that probe expires unanswered
	},
	"forgotten": {
		0, 33, 0, 31, 176, 0, 10,
		177,         // probe the far finger
		8, 1, 0, 10, // it answers 16 ms later
		8, 255, 8, 255, 8, 255, 8, 255, 8, 255, 8, 255, 8, 255, 8, 255, 8, 255, // 36.7 s without a tick
		177, // the expiry check
	},
}

// FuzzLeafsetTable checks the in-place sorted table against the naive
// rebuild-from-a-map model over random touch / merge / bury / timeout
// sequences, and the finger prober's per-probe contact records against
// the lastContact map they replaced. The seed corpus runs under plain
// `go test`.
func FuzzLeafsetTable(f *testing.F) {
	// Fill past 2r from both sides, re-gossip evicted members, bury and
	// re-gossip inside and after the tombstone window, time everyone out.
	crafted := []byte{
		0, 40, 0, 24, 0, 33, 0, 31, 0, 36, 0, 28, // touch around self
		3, 6, 34, 30, 35, 29, 34, 64, // merge with a duplicate and self
		3, 3, 40, 24, 65, // merge the evicted, and the zero entry
		6, 33, 3, 1, 33, // bury the successor; gossip must not revive it
		8, 255, 8, 255, 3, 1, 33, // past the tombstone: gossip revives it
		0, 66, 31, // the predecessor under a second address
		7, 34, 3, 1, 34, // tombstone a member, gossip it
		0, 36, 9, 10, 10, // everyone silent since times out; probe two suspects
		8, 255, 8, 255, 3, 2, 40, 30, // their tombstones lapse: gossip clears a suspect, kept or not
	}
	crafted = append(crafted, bytes.Repeat([]byte{8, 255}, 30)...) // past suspectTTL:
	crafted = append(crafted, 10)                                  // the rest age out
	// The no-trace contract at radius 1: both neighbors time out, their
	// tombstones lapse, closer nodes take both slots, then gossip names
	// the two suspects — one no longer qualifies, both stop being probed.
	unkept := []byte{
		0, 33, 0, 31, 8, 255, 8, 255, 9, 10, 10,
		8, 255, 8, 255, 0, 32, 0, 30, 3, 2, 33, 31, 10,
	}
	for r := range fuzzRadii {
		f.Add(uint8(r), crafted)
		f.Add(uint8(r), unkept)
	}
	f.Add(uint8(0), fingerSeeds["tie"])
	f.Add(uint8(0), fingerSeeds["forgotten"])
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 24; i++ {
		script := make([]byte, 3000)
		rng.Read(script)
		f.Add(uint8(i), script)
	}
	f.Fuzz(func(t *testing.T, radius uint8, script []byte) {
		runLeafsetScript(t, fuzzRadii[int(radius)%len(fuzzRadii)], script)
	})
}

// TestFingerSeedsCatchMutations requires each finger seed to agree with
// the faithful model and to fail against the model mutated at the case
// it was written for: dropping the same-instant tie, and never
// forgetting a contact.
func TestFingerSeedsCatchMutations(t *testing.T) {
	for seed, mutation := range map[string]string{"tie": "tie", "forgotten": "memory"} {
		if d := leafsetScriptDiff(1, fingerSeeds[seed], ""); d != "" {
			t.Fatalf("%s: %s", seed, d)
		}
		if leafsetScriptDiff(1, fingerSeeds[seed], mutation) == "" {
			t.Errorf("%s seed: the %q mutation of the model goes unnoticed", seed, mutation)
		}
	}
}
