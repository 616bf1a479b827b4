package coords

import (
	"fmt"
	"math"
	"math/rand"

	"p2ppool/internal/par"
)

// Vector is a network coordinate in d-dimensional Euclidean space.
type Vector []float64

// Clone returns a copy of the vector.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// Dist returns the Euclidean distance between two coordinates — the
// predicted latency between their owners.
func Dist(a, b Vector) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// LatencyFunc returns the measured one-way latency between two hosts.
type LatencyFunc func(a, b int) float64

// randomVector draws a start coordinate in [0, spread)^dim.
func randomVector(dim int, spread float64, r *rand.Rand) Vector {
	v := make(Vector, dim)
	fillRandom(v, spread, r)
	return v
}

func fillRandom(v Vector, spread float64, r *rand.Rand) {
	for i := range v {
		v[i] = r.Float64() * spread
	}
}

// rows cuts one n×dim backing array into its n coordinates: solvers
// keep what they return contiguous, and a fit can read flat in place.
func rows(n, dim int) (flat []float64, out []Vector) {
	flat = make([]float64, n*dim)
	out = make([]Vector, n)
	for i := range out {
		out[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return flat, out
}

// GNPConfig parameterizes the landmark-based solver.
type GNPConfig struct {
	// Dim is the embedding dimension (GNP works well at 5-8).
	Dim int
	// Rounds of iterative landmark refinement.
	Rounds int
	// Seed for initial coordinates.
	Seed int64
	// Spread of the random initial box; should be on the order of the
	// network diameter in milliseconds.
	Spread float64
	// RelativeError switches the objective from the paper's Σ|d_p - d_m|
	// to Σ|d_p - d_m|/d_m, the form that keeps short distances from
	// being drowned out by the few long cross-transit paths.
	RelativeError bool
	// MaxIter bounds each per-point simplex refinement (0 means the
	// simplex default, 400 evaluations per dimension). Large embeddings
	// (the topology latency oracle at tens of thousands of routers) cap
	// it to bound build time.
	MaxIter int
	// Workers bounds the goroutines used for the non-landmark solves;
	// <= 0 means runtime.NumCPU(). Every start coordinate is drawn
	// sequentially before the fan-out and each solve writes only its own
	// slot, so the result is identical for any worker count.
	Workers int
}

func (c GNPConfig) withDefaults() GNPConfig {
	if c.Dim <= 0 {
		c.Dim = 5
	}
	if c.Rounds <= 0 {
		c.Rounds = 20
	}
	if c.Spread <= 0 {
		c.Spread = 400
	}
	return c
}

// SolveGNP computes coordinates for hosts 0..n-1 in the GNP fashion:
// the landmark hosts solve their coordinates against each other first
// (iterated per-landmark downhill simplex), then every other host
// solves its own coordinate against the fixed landmarks.
func SolveGNP(lat LatencyFunc, n int, landmarks []int, cfg GNPConfig) ([]Vector, error) {
	cfg = cfg.withDefaults()
	if len(landmarks) < cfg.Dim+1 {
		return nil, fmt.Errorf("coords: need at least dim+1=%d landmarks, got %d", cfg.Dim+1, len(landmarks))
	}
	for _, l := range landmarks {
		if l < 0 || l >= n {
			return nil, fmt.Errorf("coords: landmark %d out of range [0,%d)", l, n)
		}
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	// Phase 1: landmark coordinates by iterative refinement.
	lmFlat, lm := rows(len(landmarks), cfg.Dim)
	for i := range lm {
		fillRandom(lm[i], cfg.Spread, r)
	}
	f := newFit(cfg.Dim, cfg.RelativeError, cfg.MaxIter)
	for round := 0; round < cfg.Rounds; round++ {
		for i := range landmarks {
			f.reset()
			for j := range landmarks {
				if j != i {
					f.add(lm[j], lat(landmarks[i], landmarks[j]))
				}
			}
			copy(lm[i], f.solve(lm[i]))
		}
	}

	// Phase 2: every host against the landmarks. The solves are
	// independent given the fixed landmark coordinates, so they fan out
	// over the worker pool; start coordinates are pre-drawn sequentially
	// in host order (the simplex itself draws no randomness), which makes
	// the output identical to the sequential loop for any worker count.
	_, out := rows(n, cfg.Dim)
	isLandmark := make([]bool, n)
	for i, l := range landmarks {
		copy(out[l], lm[i])
		isLandmark[l] = true
	}
	for h := 0; h < n; h++ {
		if !isLandmark[h] {
			fillRandom(out[h], cfg.Spread, r)
		}
	}
	par.ForEach(cfg.Workers, n, func(h int) {
		if isLandmark[h] {
			return
		}
		// Every host fits against the same references, read in place.
		own := newFit(cfg.Dim, cfg.RelativeError, cfg.MaxIter)
		own.refs, own.meas = lmFlat, make([]float64, len(landmarks))
		for j, l := range landmarks {
			own.meas[j] = lat(h, l)
		}
		copy(out[h], own.solve(out[h]))
	})
	return out, nil
}

// LeafsetConfig parameterizes the distributed leafset-based solver.
type LeafsetConfig struct {
	// Dim is the embedding dimension.
	Dim int
	// Rounds of relaxation; each round every node refines its own
	// coordinate against its current neighbors once (this mirrors the
	// continuous heartbeat-driven refinement of the live protocol).
	Rounds int
	// Seed for initial coordinates.
	Seed int64
	// Core overrides the bootstrap core size (default 2*(Dim+1): a full
	// leafset's worth of mutually measuring members when possible).
	Core int
	// Simultaneous disables the incremental-join bootstrap and starts
	// every node from a random coordinate at once — the ablation that
	// shows why incremental placement matters.
	Simultaneous bool
}

func (c LeafsetConfig) withDefaults() LeafsetConfig {
	if c.Dim <= 0 {
		c.Dim = 5
	}
	if c.Rounds <= 0 {
		c.Rounds = 30
	}
	if c.Core <= 0 {
		c.Core = 2 * (c.Dim + 1)
	}
	return c
}

const (
	// leafsetSpread is the side of the random initial box, on the order
	// of the network diameter in milliseconds.
	leafsetSpread = 400
	// leafsetDamping moves each node only this fraction of the way to
	// its locally optimal coordinate per round. It suppresses the
	// oscillation of simultaneous updates; the live protocol gets the
	// same effect from unsynchronized heartbeats.
	leafsetDamping = 0.5
	// leafsetEvalsPerDim bounds each per-node simplex refinement.
	leafsetEvalsPerDim = 120
)

// SolveLeafset computes coordinates for hosts 0..n-1 with the paper's
// leafset scheme: no landmarks; every node refines its own coordinate
// against the measured delays to its leafset neighbors (neighbors(i)
// returns host indices). This round-based form is the deterministic,
// fast-converging equivalent of the heartbeat protocol in Estimator,
// and is what the Figure 4 experiment runs at scale.
//
// The solve models the way a real ring bootstraps (and the way PIC [3],
// which the paper identifies with its scheme, computes coordinates):
// nodes join one at a time. While the ring is small every member is in
// every other's leafset, so the early joiners solve a mutually
// consistent core exactly like GNP's landmark phase; each later joiner
// fits against the already-placed members of its leafset. A pure
// simultaneous relaxation (all nodes moving at once from random
// positions) converges to folded embeddings an order of magnitude
// worse — set Simultaneous to observe that ablation.
func SolveLeafset(lat LatencyFunc, n int, neighbors func(i int) []int, cfg LeafsetConfig) ([]Vector, error) {
	cfg = cfg.withDefaults()
	if n <= 0 {
		return nil, fmt.Errorf("coords: n must be positive, got %d", n)
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	_, cur := rows(n, cfg.Dim)
	placed := make([]bool, n)
	f := newFit(cfg.Dim, false, leafsetEvalsPerDim*cfg.Dim)

	if cfg.Simultaneous {
		for i := range cur {
			fillRandom(cur[i], leafsetSpread, r)
			placed[i] = true
		}
	} else {
		// Incremental join in random order.
		order := r.Perm(n)
		coreSize := min(cfg.Core, n)
		core := order[:coreSize]
		for _, i := range core {
			fillRandom(cur[i], leafsetSpread, r)
		}
		// The bootstrap core heartbeats mutually (a small ring is a
		// clique of leafsets): iterate to mutual consistency.
		for round := 0; round < 15; round++ {
			for _, i := range core {
				f.reset()
				for _, j := range core {
					if j != i {
						f.add(cur[j], lat(i, j))
					}
				}
				copy(cur[i], f.solve(cur[i]))
			}
		}
		for _, i := range core {
			placed[i] = true
		}
		// Later joiners fit against placed leafset members; a joiner
		// whose leafset has too few placed members falls back to a
		// random placed sample (its leafset at join time consisted of
		// whoever was in the ring).
		placedList := append([]int(nil), core...)
		for _, i := range order[coreSize:] {
			f.reset()
			for _, x := range neighbors(i) {
				if x >= 0 && x < n && placed[x] {
					f.add(cur[x], lat(i, x))
				}
			}
			for len(f.meas) < cfg.Dim+1 && len(f.meas) < len(placedList) {
				x := placedList[r.Intn(len(placedList))]
				f.add(cur[x], lat(i, x))
			}
			fillRandom(cur[i], leafsetSpread, r)
			copy(cur[i], f.solve(cur[i]))
			placed[i] = true
			placedList = append(placedList, i)
		}
	}

	// Continuous refinement (what the live heartbeats keep doing).
	for round := 0; round < cfg.Rounds; round++ {
		for i := 0; i < n; i++ {
			nb := neighbors(i)
			if len(nb) == 0 {
				continue
			}
			f.reset()
			for _, x := range nb {
				f.add(cur[x], lat(i, x))
			}
			next := f.solve(cur[i])
			for d := range cur[i] {
				cur[i][d] += leafsetDamping * (next[d] - cur[i][d])
			}
		}
	}
	return cur, nil
}

// PairErrors computes the relative pairwise latency-prediction error
// |predicted - measured| / measured over the given host pairs; pairs
// with measured latency 0 are skipped. This is the quantity whose CDF
// Figure 4 plots.
func PairErrors(coords []Vector, lat LatencyFunc, pairs [][2]int) []float64 {
	out := make([]float64, 0, len(pairs))
	for _, p := range pairs {
		m := lat(p[0], p[1])
		if m <= 0 {
			continue
		}
		pred := Dist(coords[p[0]], coords[p[1]])
		out = append(out, math.Abs(pred-m)/m)
	}
	return out
}

// RandomPairs draws k distinct-host pairs uniformly.
func RandomPairs(n, k int, r *rand.Rand) [][2]int {
	out := make([][2]int, 0, k)
	for len(out) < k {
		a, b := r.Intn(n), r.Intn(n)
		if a != b {
			out = append(out, [2]int{a, b})
		}
	}
	return out
}
