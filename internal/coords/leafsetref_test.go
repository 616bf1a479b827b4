package coords

// SolveLeafset as it stood before its solves ran as a wavefront across
// workers, kept verbatim as the model the production code is compared
// against (only its name changed): one goroutine, one fit, the
// refinement rounds updating a single n×dim array in place in host
// order. FuzzSolveLeafsetMatchesReference requires the wavefront to
// agree with it to the last bit at every worker count.

import (
	"fmt"
	"math/rand"
	"testing"
)

func refSolveLeafset(lat LatencyFunc, n int, neighbors func(i int) []int, cfg LeafsetConfig) ([]Vector, error) {
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

// leafsetCase is one generated SolveLeafset call.
type leafsetCase struct {
	n   int
	lat LatencyFunc
	nbs [][]int
	cfg LeafsetConfig
}

// genLeafsetCase draws 1-80 hosts, dims 1-9, 1-4 rounds, a core of any
// size up to 11 past n (0 meaning the default, itself often past n),
// and asymmetric delays around planted points. shape%4 picks the
// neighbor lists: 0 symmetric rings of random radius, 1 random
// asymmetric lists of 0-20 hosts, 2 the same holding the host itself
// and duplicates, 3 empty lists (every one, or a random half of them
// beside random lists). Short and empty lists send joiners to their
// fallback samples, which are then often other joiners.
func genLeafsetCase(seed int64, n, dim, rounds, core, shape uint8, simultaneous bool) leafsetCase {
	r := rand.New(rand.NewSource(seed))
	c := leafsetCase{n: 1 + int(n)%80}
	c.cfg = LeafsetConfig{
		Dim:          1 + int(dim)%9,
		Rounds:       1 + int(rounds)%4,
		Seed:         seed,
		Core:         int(core) % (c.n + 12),
		Simultaneous: simultaneous,
	}
	pts := make([]Vector, c.n)
	for i := range pts {
		pts[i] = randomVector(3, 200, r)
	}
	delay := make([]float64, c.n*c.n)
	for a := range pts {
		for b := range pts {
			if a != b {
				delay[a*c.n+b] = Dist(pts[a], pts[b]) * (0.8 + 0.4*r.Float64())
			}
		}
	}
	c.lat = func(a, b int) float64 { return delay[a*c.n+b] }

	randomList := func(i int) []int {
		var out []int
		for k := r.Intn(21); k > 0; k-- {
			if x := r.Intn(c.n); x != i || shape%4 == 2 {
				out = append(out, x)
			}
		}
		if shape%4 == 2 && len(out) > 0 {
			out = append(out, i, out[r.Intn(len(out))])
		}
		return out
	}
	c.nbs = make([][]int, c.n)
	switch shape % 4 {
	case 0:
		perm := r.Perm(c.n)
		radius := 1 + r.Intn(8)
		for pos, h := range perm {
			for k := 1; k <= radius && 2*k <= c.n-1; k++ {
				c.nbs[h] = append(c.nbs[h], perm[(pos+k)%c.n], perm[(pos-k+c.n)%c.n])
			}
		}
	case 1, 2:
		for i := range c.nbs {
			c.nbs[i] = randomList(i)
		}
	case 3:
		all := r.Intn(2) == 0
		for i := range c.nbs {
			if !all && r.Intn(2) == 0 {
				c.nbs[i] = randomList(i)
			}
		}
	}
	return c
}

// FuzzSolveLeafsetMatchesReference requires the wavefront SolveLeafset
// to return, at 1, 2, 3 and 8 workers, every coordinate bit of the
// sequential model's, and LeafsetLevels to count levels that hold
// every solve.
func FuzzSolveLeafsetMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(9+3*seed), uint8(seed), uint8(seed), uint8(seed%4*4+1), uint8(seed), seed%5 == 4)
	}
	f.Add(int64(100), uint8(79), uint8(6), uint8(1), uint8(17), uint8(0), false) // a dim-7 ring
	f.Add(int64(101), uint8(0), uint8(6), uint8(1), uint8(0), uint8(0), false)   // one host, the default core
	f.Add(int64(102), uint8(9), uint8(2), uint8(2), uint8(20), uint8(3), false)  // core > n, empty lists
	f.Add(int64(103), uint8(60), uint8(6), uint8(3), uint8(1), uint8(3), false)  // core of one, joiners sample joiners
	f.Fuzz(func(t *testing.T, seed int64, n, dim, rounds, core, shape uint8, simultaneous bool) {
		c := genLeafsetCase(seed, n, dim, rounds, core, shape, simultaneous)
		nb := func(i int) []int { return c.nbs[i] }
		want, err := refSolveLeafset(c.lat, c.n, nb, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		levels, err := LeafsetLevels(c.n, nb, c.cfg)
		if err != nil || levels < c.cfg.Rounds {
			t.Fatalf("LeafsetLevels = %d, %v; want at least one level per round", levels, err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			cfg := c.cfg
			cfg.Workers = workers
			got, err := SolveLeafset(c.lat, c.n, nb, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !sameVector(got[i], want[i]) {
					t.Fatalf("workers=%d n=%d %+v: host %d = %v, model %v", workers, c.n, c.cfg, i, got[i], want[i])
				}
			}
		}
	})
}
