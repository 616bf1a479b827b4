package invariant

import (
	"fmt"

	"p2ppool/internal/ids"
)

// checkLeafsetSorted: a node's leafset is always strictly ordered by
// clockwise distance from the node, contains no self-entry and no
// duplicates, and never exceeds 2×radius entries. This holds at every
// instant — it is how dht.Node stores its leafset (DESIGN.md §5, "What
// one heartbeat costs").
func checkLeafsetSorted(w *World) []Violation {
	var out []Violation
	for _, h := range w.liveHosts() {
		nd := w.Nodes[h]
		self := nd.Self()
		r := nd.Config().LeafsetRadius
		ls := nd.Leafset()
		if len(ls) > 2*r {
			out = append(out, Violation{
				Check: "dht/leafset-sorted", Host: h,
				Detail: fmt.Sprintf("leafset has %d entries, radius %d allows %d", len(ls), r, 2*r),
			})
		}
		seen := make(map[ids.ID]bool, len(ls))
		prev := uint64(0)
		for i, e := range ls {
			switch {
			case e.IsZero():
				out = append(out, Violation{Check: "dht/leafset-sorted", Host: h,
					Detail: fmt.Sprintf("zero entry at index %d", i)})
			case e.ID == self.ID || e.Addr == self.Addr:
				out = append(out, Violation{Check: "dht/leafset-sorted", Host: h,
					Detail: fmt.Sprintf("self entry %v at index %d", e, i)})
			case seen[e.ID]:
				out = append(out, Violation{Check: "dht/leafset-sorted", Host: h,
					Detail: fmt.Sprintf("duplicate entry %v at index %d", e, i)})
			}
			seen[e.ID] = true
			d := ids.Dist(self.ID, e.ID)
			if i > 0 && d <= prev {
				out = append(out, Violation{Check: "dht/leafset-sorted", Host: h,
					Detail: fmt.Sprintf("entry %v at index %d out of clockwise order", e, i)})
			}
			prev = d
		}
	}
	return out
}

// fingerPurgeBound is how long a finger may keep pointing at a dead
// host: the round-robin prober visits one finger slot per heartbeat
// tick (leafset members are skipped for one cycle until buried), each
// probe waits FailureTimeout before expiring, and the tombstone gates
// re-adds for 2×FailureTimeout more.
func fingerPurgeBound(hb, ft float64, fingers int) float64 {
	return 2*float64(fingers)*hb + 4*ft
}

// checkFingerFresh: fingers point only at live hosts or hosts that died
// recently enough that the round-robin finger prober has not yet had
// time to purge them.
func checkFingerFresh(w *World) []Violation {
	var out []Violation
	for _, h := range w.liveHosts() {
		nd := w.Nodes[h]
		cfg := nd.Config()
		bound := fingerPurgeBound(float64(cfg.HeartbeatInterval), float64(cfg.FailureTimeout), cfg.Fingers)
		for i, f := range nd.Fingers() {
			if f.IsZero() {
				continue
			}
			if f.Addr == nd.Self().Addr {
				out = append(out, Violation{Check: "dht/finger-fresh", Host: h,
					Detail: fmt.Sprintf("finger %d points at self", i)})
				continue
			}
			t := int(f.Addr)
			if t < 0 || t >= len(w.Nodes) || w.Nodes[t] == nil {
				out = append(out, Violation{Check: "dht/finger-fresh", Host: h,
					Detail: fmt.Sprintf("finger %d points at unknown host %d", i, t)})
				continue
			}
			if w.liveNode(t) {
				continue
			}
			if age, ok := w.downFor(t); ok && float64(age) > bound {
				out = append(out, Violation{Check: "dht/finger-fresh", Host: h,
					Detail: fmt.Sprintf("finger %d points at host %d dead for %.0fms (purge bound %.0fms)", i, t, float64(age), bound)})
			}
		}
	}
	return out
}

// checkLeafsetLive: at quiescence every leafset entry names a live host
// under its current identity — failure detection has buried everyone
// who died.
func checkLeafsetLive(w *World) []Violation {
	var out []Violation
	for _, h := range w.liveHosts() {
		nd := w.Nodes[h]
		for _, e := range nd.Leafset() {
			t := int(e.Addr)
			if !w.liveNode(t) {
				out = append(out, Violation{Check: "dht/leafset-live", Host: h,
					Detail: fmt.Sprintf("leafset entry %v names a dead host", e)})
				continue
			}
			if w.Nodes[t].Self().ID != e.ID {
				out = append(out, Violation{Check: "dht/leafset-live", Host: h,
					Detail: fmt.Sprintf("leafset entry %v does not match host %d identity %v", e, t, w.Nodes[t].Self())})
			}
		}
	}
	return out
}

// checkLeafsetSymmetry: at quiescence, if A lists B then B lists A —
// unless B legitimately pruned A because it already has a full radius
// of strictly closer neighbors on both sides (the leafset keeps the r
// closest per side, so a node near a dense arc may drop a distant
// peer that still lists it; that asymmetry is benign and stable).
func checkLeafsetSymmetry(w *World) []Violation {
	var out []Violation
	for _, h := range w.liveHosts() {
		a := w.Nodes[h]
		for _, e := range a.Leafset() {
			t := int(e.Addr)
			if !w.liveNode(t) || w.Nodes[t].Self().ID != e.ID {
				continue // dht/leafset-live reports these
			}
			b := w.Nodes[t]
			listed := false
			for _, be := range b.Leafset() {
				if be.ID == a.Self().ID {
					listed = true
					break
				}
			}
			if listed {
				continue
			}
			// Justified prune? Count B's entries strictly closer than A
			// on each side.
			cw, ccw := 0, 0
			dcw := ids.Dist(b.Self().ID, a.Self().ID)
			dccw := ids.Dist(a.Self().ID, b.Self().ID)
			for _, be := range b.Leafset() {
				if ids.Dist(b.Self().ID, be.ID) < dcw {
					cw++
				}
				if ids.Dist(be.ID, b.Self().ID) < dccw {
					ccw++
				}
			}
			r := b.Config().LeafsetRadius
			if cw >= r && ccw >= r {
				continue
			}
			out = append(out, Violation{Check: "dht/leafset-symmetry", Host: h,
				Detail: fmt.Sprintf("%v lists %v but is not listed back (closer: %d cw, %d ccw, radius %d)",
					a.Self(), b.Self(), cw, ccw, r)})
		}
	}
	return out
}

// checkRingAgreement: at quiescence the live nodes, sorted by ring ID,
// agree pairwise — each node's successor is the next live node
// clockwise and its predecessor the previous one (the dht.CheckRing
// property, restated over the harness's liveness view).
func checkRingAgreement(w *World) []Violation {
	hosts := w.liveHosts()
	if len(hosts) < 2 {
		return nil
	}
	var out []Violation
	n := len(hosts)
	for i, h := range hosts {
		nd := w.Nodes[h]
		wantSucc := w.Nodes[hosts[(i+1)%n]].Self()
		wantPred := w.Nodes[hosts[(i-1+n)%n]].Self()
		if got := nd.Successor(); got.ID != wantSucc.ID || got.Addr != wantSucc.Addr {
			out = append(out, Violation{Check: "dht/ring-agreement", Host: h,
				Detail: fmt.Sprintf("successor is %v, want %v", got, wantSucc)})
		}
		if got := nd.Predecessor(); got.ID != wantPred.ID || got.Addr != wantPred.Addr {
			out = append(out, Violation{Check: "dht/ring-agreement", Host: h,
				Detail: fmt.Sprintf("predecessor is %v, want %v", got, wantPred)})
		}
	}
	return out
}
