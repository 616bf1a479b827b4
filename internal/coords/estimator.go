package coords

import (
	"math/rand"

	"p2ppool/internal/dht"
	"p2ppool/internal/ids"
)

// Estimator is the live, heartbeat-driven form of the leafset
// coordinate scheme. Registered as a dht.Gossip, it piggybacks this
// node's current coordinate on every heartbeat, collects neighbors'
// coordinates and measured delays from acks, and periodically refines
// its own coordinate with a downhill simplex step — the continuously
// running version of SolveLeafset.
//
// Neighbor observations live in a table in first-seen order: peer p is
// row index[p], its last advertised coordinate the row's dim floats of
// seen, owl[row] the one-way latency measured from heartbeat RTTs (0
// until an exchange carried one). A refinement reads the rows in table
// order, so the fit's floating-point sum has one order for one history.
type Estimator struct {
	dim int
	// coord is replaced by each refinement, never written in place: a
	// heartbeat carries the slice itself, and a payload still in flight
	// keeps the value it was sent with.
	coord Vector
	// payload is coord boxed once per refinement: every heartbeat
	// carries this interface value instead of converting the slice anew.
	payload     interface{}
	index       map[ids.ID]int
	seen        []float64
	owl         []float64
	fit         *fit
	fresh       int
	updateEvery int
	updates     uint64
}

// EstimatorOptions tunes a live estimator.
type EstimatorOptions struct {
	// Dim is the embedding dimension (default 5).
	Dim int
	// UpdateEvery triggers a simplex refinement after this many fresh
	// RTT samples (default: 8).
	UpdateEvery int
	// Spread of the random initial coordinate (default 400).
	Spread float64
	// Seed for the initial coordinate.
	Seed int64
}

// NewEstimator creates a live estimator and registers it on the node.
func NewEstimator(node *dht.Node, opt EstimatorOptions) *Estimator {
	if opt.Dim <= 0 {
		opt.Dim = 5
	}
	if opt.UpdateEvery <= 0 {
		opt.UpdateEvery = 8
	}
	if opt.Spread <= 0 {
		opt.Spread = 400
	}
	r := rand.New(rand.NewSource(opt.Seed))
	e := &Estimator{
		dim:         opt.Dim,
		coord:       randomVector(opt.Dim, opt.Spread, r),
		index:       make(map[ids.ID]int),
		fit:         newFit(opt.Dim, false, 60*opt.Dim),
		updateEvery: opt.UpdateEvery,
	}
	e.payload = e.coord
	node.RegisterGossip(e)
	return e
}

// Coord returns the node's current coordinate (a copy).
func (e *Estimator) Coord() Vector { return e.coord.Clone() }

// Updates returns how many simplex refinements have run.
func (e *Estimator) Updates() uint64 { return e.updates }

// SampleCount returns how many neighbors have contributed samples.
func (e *Estimator) SampleCount() int { return len(e.owl) }

// HeartbeatPayload implements dht.Gossip: advertise our coordinate.
func (e *Estimator) HeartbeatPayload(peer dht.Entry) interface{} { return e.payload }

// OnHeartbeat implements dht.Gossip: absorb the peer's coordinate and,
// when the exchange carries a fresh RTT, its measured delay.
func (e *Estimator) OnHeartbeat(peer dht.Entry, rtt float64, payload interface{}) {
	c, ok := payload.(Vector)
	if !ok || len(c) != e.dim {
		return
	}
	row, known := e.index[peer.ID]
	if known {
		copy(e.seen[row*e.dim:], c)
	} else {
		row = len(e.owl)
		e.index[peer.ID] = row
		e.seen = append(e.seen, c...)
		e.owl = append(e.owl, 0)
	}
	if rtt >= 0 {
		e.owl[row] = rtt / 2
		e.fresh++
	}
	if e.fresh >= e.updateEvery {
		e.fresh = 0
		e.refine()
	}
}

// refine runs one local simplex update over the neighbors with a
// measured delay, minimizing E(x) = Σ |d_p - d_m| exactly as Section
// 4.1 prescribes.
func (e *Estimator) refine() {
	e.fit.reset()
	for row, owl := range e.owl {
		if owl > 0 {
			e.fit.add(e.seen[row*e.dim:(row+1)*e.dim], owl)
		}
	}
	if len(e.fit.meas) < e.dim+1 {
		return // under-determined; wait for more neighbors
	}
	e.coord = append(Vector(nil), e.fit.solve(e.coord)...)
	e.payload = e.coord
	e.updates++
}
