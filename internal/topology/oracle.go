// The latency oracle: how a Network answers RouterLatency queries.
//
// The seed implementation precomputed all-pairs shortest paths — an
// O(R²) table that is exact and O(1) per query but dies (20 GB at
// R=50k) long before the event core does. This file makes the oracle
// pluggable with two implementations spanning the memory/accuracy
// trade:
//
//	kind      memory   per-query      error
//	exact     O(R²)    1 load         0
//	coords    O(R·d)   O(d) flops     ~10% median relative
//
// The coords oracle is the paper's own mechanism (GNP / PIC network
// coordinates, Section 4.1) dogfooded as the simulator's substrate: a
// handful of landmark routers run exact single-source Dijkstra, every
// router solves a d-dimensional coordinate against the landmark
// distances, and Latency(a,b) becomes a Euclidean distance — no
// quadratic table anywhere. Its error is measured, not assumed:
// OracleError samples pairs against exact Dijkstra, the scale study
// reports it per row, and tests pin the budget.
package topology

import (
	"math"
	"math/rand"
	"sort"

	"p2ppool/internal/coords"
	"p2ppool/internal/par"
)

// OracleKind selects the latency-oracle implementation.
type OracleKind int

const (
	// OracleAuto picks exact for small router graphs (≤ autoExactMax
	// routers) and coords beyond — the default.
	OracleAuto OracleKind = iota
	// OracleExact precomputes the full all-pairs table (ground truth).
	OracleExact
	// OracleCoords embeds routers in Euclidean space via landmark
	// coordinates and answers queries in O(dim) with ~10% median error.
	OracleCoords
)

// String names the kind (used in tables and bench JSON).
func (k OracleKind) String() string {
	switch k {
	case OracleExact:
		return "exact"
	case OracleCoords:
		return "coords"
	default:
		return "auto"
	}
}

// autoExactMax is the router count up to which OracleAuto picks the
// exact table: 2048² float64 = 32 MB, comfortably under the linear
// per-host state at matching pool sizes. The paper's 600-router
// topology stays exact, so every classic figure is byte-identical.
const autoExactMax = 2048

// LatencyOracle answers router-to-router latency queries. Implementations
// must be safe for concurrent use (MaxLatency scans and parallel
// experiment cells query from worker goroutines) and deterministic: the
// same network yields the same answer for a pair regardless of query
// order or concurrency.
type LatencyOracle interface {
	// RouterLatency returns the one-way latency between two routers in
	// milliseconds (0 for a == b).
	RouterLatency(a, b int) float64
	// Kind reports the implementation.
	Kind() OracleKind
}

// resolveOracle maps OracleAuto to a concrete kind for this network.
func (c Config) resolveOracle() OracleKind {
	if c.Oracle != OracleAuto {
		return c.Oracle
	}
	if c.NumRouters() <= autoExactMax {
		return OracleExact
	}
	return OracleCoords
}

// --- exact: the seed's all-pairs table ---

type exactOracle struct {
	rows [][]float64
}

func newExactOracle(n *Network) *exactOracle {
	o := &exactOracle{rows: make([][]float64, n.routers)}
	par.ForEach(n.cfg.Workers, n.routers, func(src int) {
		o.rows[src] = n.dijkstra(src)
	})
	return o
}

func (o *exactOracle) RouterLatency(a, b int) float64 { return o.rows[a][b] }
func (o *exactOracle) Kind() OracleKind               { return OracleExact }

// --- coords: landmark embedding, the paper's mechanism as substrate ---

// coordsOracle holds one flat d-dimensional coordinate per router.
type coordsOracle struct {
	dim  int
	flat []float64 // router r's coordinate at [r*dim : (r+1)*dim]
}

// Coordinate-embedding parameters. dim 8 with 24 landmarks is the
// GNP sweet spot scaled up slightly for the two-level transit-stub
// metric; the relative-error objective keeps intra-domain (short)
// distances from being drowned out by cross-transit ones. MaxIter caps
// each per-router simplex so a 50k-router embed stays in seconds.
const (
	coordsOracleDim       = 8
	coordsOracleLandmarks = 24
	coordsOracleMaxIter   = 1600
	coordsOracleRounds    = 24
)

func newCoordsOracle(n *Network) *coordsOracle {
	routers := n.routers
	nLM := coordsOracleLandmarks
	if nLM > routers {
		nLM = routers
	}
	// Landmarks: drawn uniformly from the router population with a
	// dedicated stream (generation randomness is already spent). Uniform
	// drawing lands most landmarks in stub domains, which is what makes
	// short stub-side distances observable to the fit.
	r := rand.New(rand.NewSource(n.cfg.Seed + 31))
	lms := r.Perm(routers)[:nLM]
	sort.Ints(lms)

	// Exact single-source Dijkstra from each landmark — the only exact
	// rows the oracle ever computes: O(L·R), not O(R²).
	lmRows := make([][]float64, nLM)
	par.ForEach(n.cfg.Workers, nLM, func(i int) {
		lmRows[i] = n.dijkstra(lms[i])
	})
	lmIndex := make(map[int]int, nLM)
	for i, lm := range lms {
		lmIndex[lm] = i
	}
	lat := func(a, b int) float64 {
		if i, ok := lmIndex[a]; ok {
			return lmRows[i][b]
		}
		if i, ok := lmIndex[b]; ok {
			return lmRows[i][a]
		}
		panic("topology: coords oracle measured a non-landmark pair")
	}

	// Spread of the initial random box ~ network diameter: transit-ring
	// hop count grows with domain count; half the max landmark distance
	// is a serviceable scale-free proxy.
	spread := 0.0
	for _, row := range lmRows {
		for _, d := range row {
			if d > spread {
				spread = d
			}
		}
	}
	vecs, err := coords.SolveGNP(lat, routers, lms, coords.GNPConfig{
		Dim:           coordsOracleDim,
		Rounds:        coordsOracleRounds,
		Seed:          n.cfg.Seed + 37,
		Spread:        spread / 2,
		RelativeError: true,
		MaxIter:       coordsOracleMaxIter,
		Workers:       n.cfg.Workers,
	})
	if err != nil {
		// Unreachable: landmark count and range are validated above.
		panic(err)
	}
	o := &coordsOracle{dim: coordsOracleDim, flat: make([]float64, routers*coordsOracleDim)}
	for i, v := range vecs {
		copy(o.flat[i*o.dim:], v)
	}
	return o
}

func (o *coordsOracle) RouterLatency(a, b int) float64 {
	if a == b {
		return 0
	}
	va := o.flat[a*o.dim : a*o.dim+o.dim]
	vb := o.flat[b*o.dim : b*o.dim+o.dim]
	s := 0.0
	for i, x := range va {
		d := x - vb[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func (o *coordsOracle) Kind() OracleKind { return OracleCoords }

// --- error budget ---

// OracleError measures the active oracle's relative error against exact
// single-source Dijkstra on sampled router pairs: it draws up to 64
// distinct source routers (exact rows are recomputed, never read from
// the oracle), pairs each with uniformly drawn destinations until
// `pairs` samples accumulate, and returns the p50 and p90 of
// |oracle - exact| / exact. Zero-latency pairs are skipped. The
// computation is deterministic in (pairs, seed) and independent of
// cfg.Workers, so experiment tables may include the result.
func (n *Network) OracleError(pairs int, seed int64) (p50, p90 float64) {
	if pairs <= 0 {
		pairs = 1000
	}
	r := rand.New(rand.NewSource(seed))
	nSrc := 64
	if nSrc > n.routers {
		nSrc = n.routers
	}
	srcs := r.Perm(n.routers)[:nSrc]
	rows := make([][]float64, nSrc)
	par.ForEach(n.cfg.Workers, nSrc, func(i int) {
		rows[i] = n.dijkstra(srcs[i])
	})
	errs := make([]float64, 0, pairs)
	for len(errs) < pairs {
		i := r.Intn(nSrc)
		dst := r.Intn(n.routers)
		if dst == srcs[i] {
			continue
		}
		exact := rows[i][dst]
		if exact <= 0 {
			continue
		}
		got := n.oracle.RouterLatency(srcs[i], dst)
		errs = append(errs, math.Abs(got-exact)/exact)
	}
	sort.Float64s(errs)
	return errs[len(errs)/2], errs[len(errs)*9/10]
}
