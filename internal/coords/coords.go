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
