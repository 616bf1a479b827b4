package transport

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"p2ppool/internal/eventsim"
)

// endpointNet is what a script's handlers and sends go through: one
// address's view of the network under test or of its model.
type endpointNet interface {
	Attach(a Addr, h Handler)
	Detach(a Addr)
	Send(from, to Addr, sizeBytes int, msg Message)
	Now() eventsim.Time
}

// scriptNet is one side of a differential run.
type scriptNet struct {
	view      func(a Addr) endpointNet
	setDown   func(a Addr, down bool)
	runUntil  func(t eventsim.Time)
	stats     func() Stats
	processed func() uint64
	serial    bool // handlers run on one goroutine: log the global order too
}

// delivery log entry: when, from, to, what.
type logged struct {
	at       eventsim.Time
	from, to Addr
	msg      int
}

func (l logged) String() string { return fmt.Sprintf("%d->%d@%v:%d", l.from, l.to, l.at, l.msg) }

// netScript decodes fuzz bytes into a world and a sequence of sends,
// down/up marks, detach/re-attach toggles and clock advances.
type netScript struct {
	data []byte
}

func (s *netScript) next() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

// scriptWorld is the configuration a script's header byte selects.
type scriptWorld struct {
	hosts      int // attachable addresses 0..hosts-1; sends also reach hosts, hosts+1
	quantum    eventsim.Time
	bottleneck BottleneckFunc
	lossProb   float64
	shards     int
	workers    int
}

// lookahead is the sharded worlds' window; every cross-address latency
// is at least this, so any partition is legal.
const scriptLookahead = eventsim.Time(2)

func decodeWorld(s *netScript) scriptWorld {
	h := s.next()
	w := scriptWorld{
		hosts:   2 + int(h%9),
		quantum: []eventsim.Time{0.5, 1, 0.25, 3}[h>>4&3],
		shards:  1 + int(h>>6&3),
		workers: 1 + int(s.next()%2),
	}
	if h&0x10 != 0 {
		// kbps: a 255-byte message serializes in ~2.6-10 ms, on the
		// order of the latency steps, so dispersion and ties interleave.
		w.bottleneck = func(a, b int) float64 { return 200 * float64(1+(a+b)%4) }
	}
	if s.next()%4 == 0 {
		w.lossProb = 0.25
	}
	return w
}

// latency is pure and quantised so that deliveries on different pairs
// tie often; self-sends take none.
func (w scriptWorld) latency(a, b int) float64 {
	if a == b {
		return 0
	}
	return float64(scriptLookahead + w.quantum*eventsim.Time((a*7+b*13)%4))
}

// runNetScript drives one side through the script and returns its
// delivery logs (per recipient, in delivery order; for a single engine
// also the global order), its Stats and its event count.
func runNetScript(n scriptNet, w scriptWorld, data []byte) (perAddr [][]logged, global []logged, st Stats, events uint64) {
	s := &netScript{data: data}
	addrs := w.hosts + 2
	perAddr = make([][]logged, addrs)
	attached := make([]bool, w.hosts)
	down := make([]bool, w.hosts)
	handler := func(a Addr) Handler {
		v := n.view(a)
		return func(from Addr, msg Message) {
			m := msg.(int)
			l := logged{at: v.Now(), from: from, to: a, msg: m}
			perAddr[a] = append(perAddr[a], l)
			if n.serial {
				global = append(global, l)
			}
			// Replies are sent from inside delivery events, in the same
			// instant, on the recipient's own view.
			if m%3 == 0 && m < 1<<20 {
				v.Send(a, from, 64+m%128, m+1<<20)
			}
		}
	}
	for a := 0; a < w.hosts; a++ {
		if a%4 != 3 { // a few start detached
			n.view(Addr(a)).Attach(Addr(a), handler(Addr(a)))
			attached[a] = true
		}
	}
	now, msg := eventsim.Time(0), 0
	send := func(from, to Addr, size int) {
		msg++
		n.view(from).Send(from, to, size, msg)
	}
	for len(s.data) > 0 {
		switch op := s.next(); op % 8 {
		case 0, 1, 2: // one send; the recipient may be one never attached
			send(Addr(int(s.next())%w.hosts), Addr(int(s.next())%addrs), int(s.next()))
		case 3: // a back-to-back burst on one pair
			from, to, size := Addr(int(s.next())%w.hosts), Addr(int(s.next())%addrs), int(s.next())
			for k := 0; k < 2+int(op>>3)%3; k++ {
				send(from, to, size)
			}
		case 4: // down / up
			a := int(s.next()) % w.hosts
			down[a] = !down[a]
			n.setDown(Addr(a), down[a])
		case 5: // detach / re-attach
			a := int(s.next()) % w.hosts
			if attached[a] {
				n.view(Addr(a)).Detach(Addr(a))
			} else {
				n.view(Addr(a)).Attach(Addr(a), handler(Addr(a)))
			}
			attached[a] = !attached[a]
		default: // advance the clock by a whole number of quanta
			now += w.quantum * eventsim.Time(s.next()%24)
			n.runUntil(now)
		}
	}
	n.runUntil(now + 10000)
	return perAddr, global, n.stats(), n.processed()
}

// simSides builds a Sim and its model on two engines with one seed.
func simSides(w scriptWorld, mutate bool) (got, want scriptNet) {
	opt := SimOptions{Latency: w.latency, Bottleneck: w.bottleneck, LossProb: w.lossProb}
	e1, e2 := eventsim.New(5), eventsim.New(5)
	sim, ref := NewSim(e1, opt), newRefSim(e2, opt)
	ref.skipLastArrival = mutate
	got = scriptNet{
		view:      func(Addr) endpointNet { return sim },
		setDown:   sim.SetDown,
		runUntil:  func(t eventsim.Time) { e1.RunUntil(t) },
		stats:     sim.Stats,
		processed: e1.Processed,
		serial:    true,
	}
	want = scriptNet{
		view:      func(Addr) endpointNet { return ref },
		setDown:   ref.SetDown,
		runUntil:  func(t eventsim.Time) { e2.RunUntil(t) },
		stats:     func() Stats { return ref.stats },
		processed: e2.Processed,
		serial:    true,
	}
	return got, want
}

// shardedSides builds a ShardedSim and its model.
func shardedSides(w scriptWorld, mutate bool) (got, want scriptNet) {
	opt := ShardedSimOptions{
		Latency: w.latency, Bottleneck: w.bottleneck, LossProb: w.lossProb,
		Shards: w.shards, Lookahead: scriptLookahead, Workers: w.workers, Seed: 5,
	}
	sim, ref := NewShardedSim(opt), newRefShardedSim(opt)
	for _, sh := range ref.shards {
		sh.skipLastArrival = mutate
	}
	got = scriptNet{
		view:      func(a Addr) endpointNet { return sim.View(a).(endpointNet) },
		setDown:   sim.SetDown,
		runUntil:  func(t eventsim.Time) { sim.RunUntil(t) },
		stats:     sim.Stats,
		processed: sim.Processed,
		serial:    w.workers == 1,
	}
	want = scriptNet{
		view:      func(a Addr) endpointNet { return ref.View(a) },
		setDown:   ref.SetDown,
		runUntil:  func(t eventsim.Time) { ref.RunUntil(t) },
		stats:     ref.Stats,
		processed: ref.group.Processed,
		serial:    w.workers == 1,
	}
	return got, want
}

// compareNetScript runs the script on both sides and describes the
// first difference, or returns "".
func compareNetScript(sides func(scriptWorld, bool) (scriptNet, scriptNet), data []byte, mutate bool) string {
	hdr := &netScript{data: data}
	w := decodeWorld(hdr)
	got, want := sides(w, mutate)
	gA, gG, gS, gE := runNetScript(got, w, hdr.data)
	wA, wG, wS, wE := runNetScript(want, w, hdr.data)
	for a := range wA {
		if !slices.Equal(gA[a], wA[a]) {
			return fmt.Sprintf("addr %d deliveries\n got  %v\n want %v", a, gA[a], wA[a])
		}
	}
	if !slices.Equal(gG, wG) {
		return fmt.Sprintf("delivery order\n got  %v\n want %v", gG, wG)
	}
	if gS != wS {
		return fmt.Sprintf("stats %+v, model %+v", gS, wS)
	}
	if gE != wE {
		return fmt.Sprintf("events %d, model %d", gE, wE)
	}
	return ""
}

// netSeeds is the seed corpus both fuzz targets start from: crafted
// packet-pair bursts with and without a bottleneck, then random scripts.
func netSeeds() [][]byte {
	crafted := [][]byte{
		// bottleneck, quantum 0.5: bursts on one pair, a reply storm,
		// a down/up in flight, a detach and re-attach, a never-attached
		// recipient.
		{0x14, 0, 1, 3, 0, 1, 200, 6, 0, 3, 1, 0, 255, 4, 1, 0, 0, 1, 90, 5, 1, 6, 3, 4, 1, 0, 2, 7, 10, 6, 20, 5, 1, 0, 1, 0, 60, 7, 23},
		// the same without a bottleneck
		{0x04, 0, 1, 3, 0, 1, 200, 6, 0, 3, 1, 0, 255, 4, 1, 0, 0, 1, 90, 5, 1, 6, 3, 4, 1, 0, 2, 7, 10, 6, 20, 5, 1, 0, 1, 0, 60, 7, 23},
		// four shards, two workers, bottleneck, loss
		{0xd6, 1, 0, 3, 2, 5, 250, 0, 1, 6, 100, 3, 4, 2, 30, 6, 2, 0, 9, 77, 3, 1, 7, 255, 7, 3, 4, 4, 0, 5, 2, 66, 6, 9},
	}
	r := rand.New(rand.NewSource(25))
	for i := 0; i < 40; i++ {
		b := make([]byte, 200+r.Intn(400))
		r.Read(b)
		crafted = append(crafted, b)
	}
	return crafted
}

// FuzzSimMatchesReference checks Sim's dense tables, and its skipping
// of packet-pair state without a bottleneck, against the map-backed
// pre-PR-25 code: the same deliveries (time, sender, recipient,
// message) in the same order, the same Stats and the same event count.
func FuzzSimMatchesReference(f *testing.F) {
	for _, b := range netSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if d := compareNetScript(simSides, data, false); d != "" {
			t.Fatal(d)
		}
	})
}

// FuzzShardedSimMatchesReference is the same check for ShardedSim at
// 1-4 shards and 1-2 workers. Its worlds are too light for a window to
// split across workers; built with -tags forcesplit, every window of the
// two-worker inputs does.
func FuzzShardedSimMatchesReference(f *testing.F) {
	for _, b := range netSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if d := compareNetScript(shardedSides, data, false); d != "" {
			t.Fatal(d)
		}
	})
}

// TestNetReferenceCatchesLastArrivalSkip seeds the mutation the dense
// path must not make — ignoring lastArrival with a bottleneck set — on
// the model's side and requires the seed corpus to see it on both
// networks.
func TestNetReferenceCatchesLastArrivalSkip(t *testing.T) {
	for name, sides := range map[string]func(scriptWorld, bool) (scriptNet, scriptNet){
		"Sim": simSides, "ShardedSim": shardedSides,
	} {
		caught := 0
		for _, b := range netSeeds() {
			if compareNetScript(sides, b, true) != "" {
				caught++
			}
		}
		if caught == 0 {
			t.Errorf("%s: no seed distinguishes the lastArrival skip under a bottleneck", name)
		}
		t.Logf("%s: %d of %d seeds catch the mutation", name, caught, len(netSeeds()))
	}
}

// simVsShardedSides builds a ShardedSim and a Sim over one world, both
// without loss, bottleneck or down marks (loss draws come from
// differently seeded streams, packet-pair arrivals depend on per-pair
// send order, and a standalone Sim checks the recipient's mark at send
// time). Two boundaries also differ between the networks, and boundary
// keeps them in the world: a zero-latency self-send, and a lookahead
// equal to the smallest cross-address latency. Without it self-sends
// take one quantum and the ShardedSim's window is half the smallest
// latency, so no cross-shard message arrives exactly at a barrier.
func simVsShardedSides(w scriptWorld, boundary bool) (sharded, sim scriptNet) {
	self, lookahead := float64(w.quantum), scriptLookahead/2
	if boundary {
		self, lookahead = 0, scriptLookahead
	}
	lat := func(a, b int) float64 {
		if a == b {
			return self
		}
		return w.latency(a, b)
	}
	e := eventsim.New(5)
	s := NewSim(e, SimOptions{Latency: lat})
	sh := NewShardedSim(ShardedSimOptions{Latency: lat, Shards: w.shards, Lookahead: lookahead, Workers: w.workers, Seed: 5})
	noDown := func(Addr, bool) {}
	sharded = scriptNet{
		view:      func(a Addr) endpointNet { return sh.View(a).(endpointNet) },
		setDown:   noDown,
		runUntil:  func(t eventsim.Time) { sh.RunUntil(t) },
		stats:     sh.Stats,
		processed: sh.Processed,
		serial:    w.shards == 1,
	}
	sim = scriptNet{
		view:      func(Addr) endpointNet { return s },
		setDown:   noDown,
		runUntil:  func(t eventsim.Time) { e.RunUntil(t) },
		stats:     s.Stats,
		processed: e.Processed,
		serial:    w.shards == 1,
	}
	return sharded, sim
}

// byInstant orders one recipient's deliveries by time, then message:
// its multiset per instant, free of same-instant order.
func byInstant(l []logged) []logged {
	l = slices.Clone(l)
	slices.SortStableFunc(l, func(a, b logged) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.msg, b.msg)
	})
	return l
}

// compareShardedToSim runs the script on a ShardedSim and on a Sim and
// describes the first difference, or returns "". At one shard the two
// must agree exactly: deliveries, their global order, Stats and event
// count. At more, events at one instant on different shards are
// numbered apart, so each recipient must see the same messages at each
// instant, and Stats and the event count must agree.
func compareShardedToSim(data []byte, boundary bool) string {
	hdr := &netScript{data: data}
	w := decodeWorld(hdr)
	got, want := simVsShardedSides(w, boundary)
	gA, gG, gS, gE := runNetScript(got, w, hdr.data)
	wA, wG, wS, wE := runNetScript(want, w, hdr.data)
	for a := range wA {
		g, x := gA[a], wA[a]
		if w.shards > 1 {
			g, x = byInstant(g), byInstant(x)
		}
		if !slices.Equal(g, x) {
			return fmt.Sprintf("%d shards: addr %d deliveries\n sharded %v\n sim     %v", w.shards, a, g, x)
		}
	}
	if !slices.Equal(gG, wG) {
		return fmt.Sprintf("delivery order\n sharded %v\n sim     %v", gG, wG)
	}
	if gS != wS {
		return fmt.Sprintf("%d shards: stats %+v, Sim %+v", w.shards, gS, wS)
	}
	if gE != wE {
		return fmt.Sprintf("%d shards: events %d, Sim %d", w.shards, gE, wE)
	}
	return ""
}

// boundarySeeds are scripts on which the networks differ only at a
// boundary simVsShardedSides excludes (DESIGN.md §5 "What one message
// costs").
var boundarySeeds = [][]byte{
	// One shard, two hosts: 0 sends to itself, the driver runs to the
	// current instant and detaches 0. Engine.RunUntil(now) fires the
	// zero-latency delivery before the detach; ShardGroup.RunUntil(now)
	// runs nothing, so it fires after and is dropped.
	{0x00, 0, 1, 0, 0, 0, 10, 6, 0, 5, 0},
	// Three shards, six hosts: 0 sends to 4 (another shard) with a
	// latency of exactly the lookahead, the driver runs to the arrival
	// and detaches 4. The message is flushed at that barrier, which is
	// the deadline, so it fires only in the next RunUntil, after the
	// detach, and is dropped; Sim delivers it.
	{0x82, 0, 1, 0, 0, 4, 10, 6, 4, 5, 4},
}

// FuzzShardedSimMatchesSim checks ShardedSim at 1-4 shards and 1-2
// workers against a standalone Sim on the same script (see
// compareShardedToSim for what must agree).
func FuzzShardedSimMatchesSim(f *testing.F) {
	for _, b := range netSeeds() {
		f.Add(b)
	}
	for _, b := range boundarySeeds {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if d := compareShardedToSim(data, false); d != "" {
			t.Fatal(d)
		}
	})
}

// TestShardedSimBoundaries pins the two known differences from Sim:
// each boundary seed differs by exactly one message delivered on Sim
// and dropped on ShardedSim once its boundary is in the world, and
// agrees without it.
func TestShardedSimBoundaries(t *testing.T) {
	for i, b := range boundarySeeds {
		if d := compareShardedToSim(b, false); d != "" {
			t.Errorf("seed %d, boundary excluded: %s", i, d)
		}
		hdr := &netScript{data: b}
		w := decodeWorld(hdr)
		got, want := simVsShardedSides(w, true)
		_, _, gS, _ := runNetScript(got, w, hdr.data)
		_, _, wS, _ := runNetScript(want, w, hdr.data)
		if wS.MessagesDelivered != 1 || gS.MessagesDelivered != 0 || gS.MessagesDropped != wS.MessagesDropped+1 {
			t.Errorf("seed %d: ShardedSim %+v, Sim %+v; want the one message Sim delivers dropped", i, gS, wS)
		}
	}
}
