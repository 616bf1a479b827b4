package bandwidth

import (
	"p2ppool/internal/dht"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/ids"
)

// pairProbe is one half of a padded back-to-back probe pair. The wire
// size is what matters; the payload identifies the pair.
type pairProbe struct {
	From    dht.Entry
	ProbeID uint64
	Seq     int // 1 or 2
}

// pairReport returns the receiver-side estimate to the prober, the
// "piggybacked in the next heartbeat" report of the paper (sent
// immediately here; the information content is identical).
type pairReport struct {
	ProbeID  uint64
	EstKbps  float64
	Reporter dht.Entry
}

// ProberOptions tunes a live bandwidth prober.
type ProberOptions struct {
	// ProbeInterval between probe pairs to a random leafset member
	// (default 2 s).
	ProbeInterval eventsim.Time
}

// padBytes is the padded probe size (the paper suggests ~1.5 KB).
const padBytes = 1500

func (o ProberOptions) withDefaults() ProberOptions {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * eventsim.Second
	}
	return o
}

// Prober runs the live packet-pair protocol on a DHT node: periodically
// send two padded back-to-back messages to a random leafset member; the
// receiver measures their dispersion, updates its downlink estimate and
// reports the measurement back, updating the prober's uplink estimate.
type Prober struct {
	node *dht.Node
	opt  ProberOptions

	probeID uint64
	// pending maps (sender, probeID) -> arrival time of seq 1.
	pending map[pendingKey]eventsim.Time

	up   float64
	down float64

	probesSent   uint64
	measurements uint64

	cancel  func() bool
	stopped bool
}

type pendingKey struct {
	id      ids.ID
	probeID uint64
}

// NewProber attaches a live prober to the node.
func NewProber(node *dht.Node, opt ProberOptions) *Prober {
	p := &Prober{
		node:    node,
		opt:     opt.withDefaults(),
		pending: make(map[pendingKey]eventsim.Time),
	}
	node.OnApp(p.onApp)
	p.schedule()
	return p
}

// Stop halts periodic probing.
func (p *Prober) Stop() {
	p.stopped = true
	if p.cancel != nil {
		p.cancel()
		p.cancel = nil
	}
}

// UpEstimate returns the current uplink bottleneck estimate in kbps
// (0 until the first report arrives).
func (p *Prober) UpEstimate() float64 { return p.up }

// DownEstimate returns the current downlink bottleneck estimate in kbps.
func (p *Prober) DownEstimate() float64 { return p.down }

// Measurements returns how many dispersion measurements this node has
// taken as a receiver.
func (p *Prober) Measurements() uint64 { return p.measurements }

func (p *Prober) schedule() {
	// Jitter decorrelates probe waves (two nodes probing each other
	// simultaneously would perturb each other's dispersion).
	j := 0.5 + p.node.Network().Rand().Float64()
	p.cancel = p.node.Network().After(eventsim.Time(float64(p.opt.ProbeInterval)*j), p.tick)
}

func (p *Prober) tick() {
	if p.stopped || !p.node.Active() {
		return
	}
	ls := p.node.Leafset()
	if len(ls) > 0 {
		target := ls[p.node.Network().Rand().Intn(len(ls))]
		p.probeID++
		p.node.SendApp(target, padBytes, pairProbe{From: p.node.Self(), ProbeID: p.probeID, Seq: 1})
		p.node.SendApp(target, padBytes, pairProbe{From: p.node.Self(), ProbeID: p.probeID, Seq: 2})
		p.probesSent++
	}
	p.schedule()
}

func (p *Prober) onApp(from dht.Entry, payload interface{}) {
	switch m := payload.(type) {
	case pairProbe:
		key := pendingKey{id: m.From.ID, probeID: m.ProbeID}
		now := p.node.Network().Now()
		switch m.Seq {
		case 1:
			// A lost seq-2 would otherwise leak its pending entry
			// forever; expire anything old enough that its pair can no
			// longer arrive back-to-back. (A late match after this
			// window would only ever measure queueing, not dispersion.)
			horizon := 10 * p.opt.ProbeInterval
			for k, t1 := range p.pending {
				if now-t1 > horizon {
					delete(p.pending, k)
				}
			}
			p.pending[key] = now
		case 2:
			t1, ok := p.pending[key]
			if !ok {
				return
			}
			delete(p.pending, key)
			gap := float64(now - t1)
			if gap <= 0 {
				return // infinite-bandwidth path: nothing to learn
			}
			est := float64(padBytes*8) / gap // kbps (bits per ms)
			p.measurements++
			if est > p.down {
				p.down = est
			}
			p.node.SendApp(m.From, 48, pairReport{ProbeID: m.ProbeID, EstKbps: est, Reporter: p.node.Self()})
		}
	case pairReport:
		if m.EstKbps > p.up {
			p.up = m.EstKbps
		}
	}
}
