package dataplane

import (
	"fmt"
	"math/rand"
	"testing"

	"p2ppool/internal/alm"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/transport"
)

// The pump's clock as it stood before PR 24, kept as the model
// FuzzPumpMatchesReference compares the live pump against: every
// emission of the stream queued when the pump starts, and one timer per
// (member, chunk) for every pull round. The bodies are verbatim; only
// the names carry the ref prefix, and the pull count's mirror into the
// obs registry is gone with the registry's counter handles. Everything else — the set-up in
// StartPump, forward, sendChunk, onChunk, onPull, Finalize — is the
// shared production code.

// muteNet swallows timers, so refStartPump can run StartPump for its
// validation, mesh draw and registration without arming the emit timer.
type muteNet struct{ transport.Network }

func (muteNet) After(eventsim.Time, func()) transport.CancelFunc {
	return func() bool { return false }
}

// refStartPump is the old StartPump: today's set-up, then the
// pre-queuing loop.
func refStartPump(pl *Plane, key, root int, members []int, tree TreeFunc, alive func(int) bool, at eventsim.Time, cfg Config) (*Pump, error) {
	net := pl.net
	pl.net = muteNet{net}
	p, err := pl.StartPump(key, root, members, tree, alive, at, cfg)
	pl.net = net
	if err != nil {
		return nil, err
	}
	cfg = p.cfg

	now := pl.net.Now()
	for s := 0; s < cfg.Chunks; s++ {
		s := s
		emit := at + eventsim.Time(s)*cfg.ChunkDur
		if emit < now {
			return nil, fmt.Errorf("dataplane: session %d: chunk %d emission %v in the past", key, s, emit)
		}
		pl.net.After(emit-now, func() { p.refEmit(s) })
	}
	return p, nil
}

// refEmit clocks chunk s at the source: snapshot which members are due
// (alive at emission — a member that crashes later still counts, its
// miss is the stream's miss), mark the root as having the chunk, push
// to the tree children, and arm each due member's pull schedule.
func (p *Pump) refEmit(s int) {
	if !p.alive(p.root) {
		return // a dead source emits nothing; nothing becomes due
	}
	rs := p.host(p.root)
	rs.got[s] = chunkState{arrived: true, at: p.plane.net.Now()}
	for _, m := range p.members {
		if m == p.root || !p.alive(m) {
			continue
		}
		p.host(m).got[s].expected = true
		p.stats.Expected++
		p.refSchedulePull(m, s, p.pullStart)
	}
	p.forward(p.root, s)
}

// refSchedulePull arms member m's next pull round for chunk s, delay
// after the chunk's emission time. Rounds stop at the playout deadline.
func (p *Pump) refSchedulePull(m, s int, delay eventsim.Time) {
	if len(p.host(m).nbrs) == 0 {
		return
	}
	emit := p.start + eventsim.Time(s)*p.cfg.ChunkDur
	fire := emit + delay
	if fire > emit+p.cfg.Playout {
		return // past the deadline: a pull could no longer save the chunk
	}
	p.plane.net.After(fire-p.plane.net.Now(), func() { p.refPullRound(m, s, delay) })
}

// refPullRound asks the next mesh neighbor in rotation for chunk s,
// then re-arms. A crashed member skips the round but keeps the schedule
// (it may restart inside a long VoD window); a crashed or chunk-less
// neighbor simply never answers and the rotation moves on. A pull sent
// within the last pullTimeout suppresses this round's send — the
// neighbor's response may still be in flight, and re-asking would spend
// mesh uplink shipping duplicates.
func (p *Pump) refPullRound(m, s int, delay eventsim.Time) {
	hs := p.host(m)
	st := &hs.got[s]
	if st.arrived {
		return
	}
	now := p.plane.net.Now()
	if p.alive(m) && (!st.pullSent || now-st.lastPull >= p.pullTimeout) {
		n := hs.nbrs[hs.nextNbr%len(hs.nbrs)]
		hs.nextNbr++
		st.pullSent = true
		st.lastPull = now
		p.stats.PullsSent++
		p.plane.net.Send(transport.Addr(m), transport.Addr(n), headerBytes, pullMsg{Key: p.key, Seq: s, From: m})
	}
	p.refSchedulePull(m, s, delay+p.pullRetry)
}

// startFunc is StartPump or refStartPump.
type startFunc func(pl *Plane, key, root int, members []int, tree TreeFunc, alive func(int) bool, at eventsim.Time, cfg Config) (*Pump, error)

// pumpRun is what one world looked like once its event queue ran dry.
type pumpRun struct {
	pumps      []*Pump
	stats      []Stats // Finalize of each pump
	upActive   []int
	downActive []int
	net        transport.Stats
	events     uint64
}

// drawTree attaches each host but root with probability 0.85, in random
// order under a random already-attached parent with fan-out at most
// maxKids: the hosts left out are the detached members only a pull can
// serve.
func drawTree(r *rand.Rand, n, root, maxKids int) *alm.Tree {
	tr := alm.NewTree(root)
	in := []int{root}
	for _, h := range r.Perm(n) {
		if h == root || r.Float64() > 0.85 {
			continue
		}
		for {
			if p := in[r.Intn(len(in))]; len(tr.Children(p)) < maxKids {
				if err := tr.Attach(h, p); err != nil {
					panic(err)
				}
				break
			}
		}
		in = append(in, h)
	}
	return tr
}

// runPumpCase draws a world from the fuzz inputs, starts two pumps in it
// at the same instant with start, and runs it to quiescence. Everything
// is drawn from seed before the first event, so two calls with the same
// inputs differ only in start (and in mutate, which the
// reversed-round test uses to damage one side).
//
// What is drawn on a grid and what off it is the point of the case.
// ChunkDur, Playout and the start time are whole milliseconds, so pull
// rounds of adjacent chunks (retry = ChunkDur/2) and, at shape's 2.5x
// and 5x playout ratios, pull rounds and emissions land on the same
// instant to the bit, again and again, across both pumps; and latMode
// quantises latency to one value or three, so the pulls of one round
// reach a shared neighbor in the same instant and are answered in the
// order they were sent, at the fair share that order gives them. The
// order the engine breaks those ties in is what is under test.
// Latencies carry a fractional part no grid time has and capacities are
// arbitrary floats, and the crash, restart and tree-swap events are
// queued before the pumps start, so nothing else ties with a timer
// whose arming moved.
func runPumpCase(start startFunc, mutate func(*Pump), seed int64, size, pullK, shape, latMode, faults uint8) pumpRun {
	r := rand.New(rand.NewSource(seed))
	n := 3 + int(size)%38
	engine := eventsim.New(seed)
	salt := int(seed & 0xffff)
	latSteps := []int{6000, 3, 1}[int(latMode)%3]
	sim := transport.NewSim(engine, transport.SimOptions{
		Latency: func(a, b int) float64 {
			return 3.0037 + 60*float64((a*7919+b*104729+salt)%latSteps)/float64(latSteps)
		},
	})
	chunkDur := []eventsim.Time{400, 500, 1000, 2000}[r.Intn(4)]
	cfg := Config{
		ChunkDur:      chunkDur,
		BitrateKbps:   200 + 300*r.Float64(),
		Playout:       chunkDur * []eventsim.Time{0, 2, 5, 6, 10}[int(shape)%5] / 2, // 0 is the default, 3x
		Chunks:        3 + r.Intn(12),
		PullNeighbors: int(pullK) % 5,
	}
	up := make([]float64, n)
	down := make([]float64, n)
	for h := range up {
		// From a third of the rung (every chunk through this host is
		// late) to four rungs of uplink.
		up[h] = cfg.BitrateKbps * (0.3 + 4*r.Float64())
		down[h] = cfg.BitrateKbps * (1 + 8*r.Float64())
	}
	pl := NewPlane(sim, up, down)
	pl.Attach(n)
	alive := func(h int) bool { return !sim.IsDown(transport.Addr(h)) }

	type session struct {
		root    int
		members []int
		cur     *alm.Tree
	}
	sessions := make([]*session, 2)
	for i := range sessions {
		se := &session{root: r.Intn(n)}
		for h := 0; h < n; h++ {
			// The root is sometimes on its own roster; a non-member in
			// the tree is a helper.
			if (h != se.root || r.Intn(4) == 0) && r.Float64() < 0.85 {
				se.members = append(se.members, h)
			}
		}
		se.cur = drawTree(r, n, se.root, 1+r.Intn(4))
		sessions[i] = se
	}

	// The fault script, off the grid and ahead of the pumps in the queue.
	callAt := eventsim.Time([]float64{0, 37}[r.Intn(2)])
	at := callAt + eventsim.Time([]float64{0, 1, 963}[r.Intn(3)])
	span := float64(eventsim.Time(cfg.Chunks)*chunkDur + cfg.withDefaults().Playout)
	off := func() eventsim.Time { return at + eventsim.Time(span*r.Float64()) + 0.0619 }
	for i := 0; i < int(faults)%4; i++ {
		h := transport.Addr(r.Intn(n))
		crash := off()
		engine.At(crash, func() { sim.SetDown(h, true) })
		if r.Intn(3) > 0 {
			engine.At(crash+eventsim.Time(span*r.Float64()/2), func() { sim.SetDown(h, false) })
		}
	}
	if faults&4 != 0 {
		// A replan under the running stream, through a stretch with no
		// plan at all.
		se, next := sessions[0], drawTree(r, n, sessions[0].root, 1+r.Intn(4))
		swap := off()
		engine.At(swap, func() { se.cur = nil })
		engine.At(swap+eventsim.Time(float64(chunkDur)*r.Float64()), func() { se.cur = next })
	}

	run := pumpRun{pumps: make([]*Pump, len(sessions))}
	engine.At(callAt, func() {
		for i, se := range sessions {
			se := se
			cfg.Seed = seed + int64(i)
			p, err := start(pl, i+1, se.root, se.members, func() *alm.Tree { return se.cur }, alive, at, cfg)
			if err != nil {
				panic(err)
			}
			if mutate != nil {
				mutate(p)
			}
			run.pumps[i] = p
		}
	})
	engine.Run(0)
	for _, p := range run.pumps {
		run.stats = append(run.stats, p.Finalize())
	}
	run.upActive, run.downActive = pl.cont.upActive, pl.cont.downActive
	run.net, run.events = sim.Stats(), engine.Processed()
	return run
}

// diffPumpRuns names the first difference between two runs of one case:
// the outcome counters, every host's receipt ledger (arrival times to
// the bit) and pull cursor, the access links' active counts, and the
// transport's message and byte totals.
func diffPumpRuns(got, want pumpRun) string {
	for i, p := range got.pumps {
		w := want.pumps[i]
		if got.stats[i] != want.stats[i] {
			return fmt.Sprintf("pump %d: stats %+v, reference %+v", i, got.stats[i], want.stats[i])
		}
		if len(p.hosts) != len(w.hosts) {
			return fmt.Sprintf("pump %d: %d host ledgers, reference %d", i, len(p.hosts), len(w.hosts))
		}
		for h, hs := range p.hosts {
			ws := w.hosts[h]
			if ws == nil {
				return fmt.Sprintf("pump %d: host %d has a ledger, none in the reference", i, h)
			}
			if hs.nextNbr != ws.nextNbr {
				return fmt.Sprintf("pump %d host %d: pull cursor %d, reference %d", i, h, hs.nextNbr, ws.nextNbr)
			}
			for s := range hs.got {
				if hs.got[s] != ws.got[s] {
					return fmt.Sprintf("pump %d host %d chunk %d: %+v, reference %+v", i, h, s, hs.got[s], ws.got[s])
				}
			}
		}
	}
	if fmt.Sprint(got.upActive, got.downActive) != fmt.Sprint(want.upActive, want.downActive) {
		return fmt.Sprintf("active transfers up %v down %v, reference up %v down %v", got.upActive, got.downActive, want.upActive, want.downActive)
	}
	if got.net != want.net {
		return fmt.Sprintf("transport %+v, reference %+v", got.net, want.net)
	}
	return ""
}

func checkPumpMatchesReference(t *testing.T, seed int64, size, pullK, shape, latMode, faults uint8) {
	t.Helper()
	got := runPumpCase((*Plane).StartPump, nil, seed, size, pullK, shape, latMode, faults)
	want := runPumpCase(refStartPump, nil, seed, size, pullK, shape, latMode, faults)
	if d := diffPumpRuns(got, want); d != "" {
		t.Errorf("case (%d,%d,%d,%d,%d,%d): %s", seed, size, pullK, shape, latMode, faults, d)
	}
	if got.events > want.events {
		t.Errorf("case (%d,%d,%d,%d,%d,%d): %d events, reference %d", seed, size, pullK, shape, latMode, faults, got.events, want.events)
	}
}

// pumpCorpus feeds the fuzzer and the tests below the same inputs:
// every playout shape, latency mode and pull fan-out, with and without
// faults.
func pumpCorpus(add func(seed int64, size, pullK, shape, latMode, faults uint8)) {
	for seed := int64(1); seed <= 60; seed++ {
		add(seed, uint8(seed*7), uint8(seed), uint8(seed/5), uint8(seed/2), uint8(seed/3))
	}
}

// FuzzPumpMatchesReference: one emit timer per pump and one pull event
// per (chunk, round) leave every outcome — stats, ledgers, link counts,
// transport totals — exactly where the pre-queued, per-member clock of
// pumpref_test.go leaves it.
func FuzzPumpMatchesReference(f *testing.F) {
	pumpCorpus(func(seed int64, size, pullK, shape, latMode, faults uint8) {
		f.Add(seed, size, pullK, shape, latMode, faults)
	})
	f.Fuzz(checkPumpMatchesReference)
}

// TestPumpReferenceCatchesReversedRound damages one side — the members
// of a round take their turn in reverse — and requires the comparison to
// notice on the seed corpus: a round's order is an output (the rotation
// cursors are per member, but the pulls contend for the same uplinks
// downstream), and a harness that could not see it would pin nothing.
func TestPumpReferenceCatchesReversedRound(t *testing.T) {
	reverse := func(p *Pump) {
		for i, j := 0, len(p.members)-1; i < j; i, j = i+1, j-1 {
			p.members[i], p.members[j] = p.members[j], p.members[i]
		}
	}
	caught := 0
	pumpCorpus(func(seed int64, size, pullK, shape, latMode, faults uint8) {
		got := runPumpCase((*Plane).StartPump, nil, seed, size, pullK, shape, latMode, faults)
		want := runPumpCase(refStartPump, reverse, seed, size, pullK, shape, latMode, faults)
		if diffPumpRuns(got, want) != "" {
			caught++
		}
	})
	if caught == 0 {
		t.Fatal("no corpus case tells a round walked in reverse from one walked in order")
	}
	t.Logf("reversed round caught on %d of 60 corpus cases", caught)
}
