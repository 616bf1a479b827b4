package coords

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"p2ppool/internal/stats"
)

func TestDist(t *testing.T) {
	a := Vector{0, 0, 0}
	b := Vector{3, 4, 0}
	if got := Dist(a, b); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if Dist(a, a) != 0 {
		t.Error("self distance should be 0")
	}
}

func TestClone(t *testing.T) {
	a := Vector{1, 2}
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Error("Clone should not alias")
	}
}

func TestMinimizeQuadratic(t *testing.T) {
	// f(x) = (x0-3)^2 + (x1+1)^2 has minimum at (3,-1).
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+1)*(x[1]+1)
	}
	best, val := Minimize(f, []float64{0, 0}, SimplexOptions{})
	if math.Abs(best[0]-3) > 1e-3 || math.Abs(best[1]+1) > 1e-3 {
		t.Errorf("minimum at %v, want (3,-1)", best)
	}
	if val > 1e-5 {
		t.Errorf("value %v, want ~0", val)
	}
}

func TestMinimizeRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	best, _ := Minimize(f, []float64{-1.2, 1}, SimplexOptions{MaxIter: 5000, InitialStep: 0.5})
	if math.Abs(best[0]-1) > 0.05 || math.Abs(best[1]-1) > 0.05 {
		t.Errorf("Rosenbrock minimum at %v, want (1,1)", best)
	}
}

func TestMinimizeEmpty(t *testing.T) {
	_, val := Minimize(func(x []float64) float64 { return 42 }, nil, SimplexOptions{})
	if val != 42 {
		t.Error("empty minimize should evaluate once")
	}
}

func TestMinimizeDoesNotMutateStart(t *testing.T) {
	start := []float64{5, 5}
	Minimize(func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] }, start, SimplexOptions{})
	if start[0] != 5 || start[1] != 5 {
		t.Error("start point mutated")
	}
}

// planted builds a synthetic latency function from known coordinates,
// so the embedding is exactly recoverable (up to isometry).
func planted(n, dim int, seed int64) ([]Vector, LatencyFunc) {
	r := rand.New(rand.NewSource(seed))
	pts := make([]Vector, n)
	for i := range pts {
		pts[i] = randomVector(dim, 200, r)
	}
	return pts, func(a, b int) float64 { return Dist(pts[a], pts[b]) }
}

func TestSolveGNPPlanted(t *testing.T) {
	const n = 60
	_, lat := planted(n, 3, 1)
	landmarks := []int{0, 1, 2, 3, 4, 5, 6, 7}
	got, err := SolveGNP(lat, n, landmarks, GNPConfig{Dim: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	errs := PairErrors(got, lat, RandomPairs(n, 400, r))
	med := stats.Median(errs)
	if med > 0.05 {
		t.Errorf("planted GNP median relative error %.3f, want < 0.05", med)
	}
}

func TestSolveGNPErrors(t *testing.T) {
	_, lat := planted(10, 3, 1)
	if _, err := SolveGNP(lat, 10, []int{0, 1}, GNPConfig{Dim: 5}); err == nil {
		t.Error("too few landmarks should fail")
	}
	if _, err := SolveGNP(lat, 10, []int{0, 1, 2, 3, 4, 5, 99}, GNPConfig{Dim: 5}); err == nil {
		t.Error("out-of-range landmark should fail")
	}
}

func TestSolveLeafsetPlanted(t *testing.T) {
	const n = 60
	_, lat := planted(n, 3, 4)
	// Neighbor sets: 16 random but fixed per node.
	r := rand.New(rand.NewSource(5))
	nbs := make([][]int, n)
	for i := range nbs {
		seen := map[int]bool{i: true}
		for len(nbs[i]) < 16 {
			x := r.Intn(n)
			if !seen[x] {
				seen[x] = true
				nbs[i] = append(nbs[i], x)
			}
		}
	}
	got, err := SolveLeafset(lat, n, func(i int) []int { return nbs[i] }, LeafsetConfig{Dim: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	errs := PairErrors(got, lat, RandomPairs(n, 400, r))
	med := stats.Median(errs)
	if med > 0.15 {
		t.Errorf("planted leafset median relative error %.3f, want < 0.15", med)
	}
}

func TestSolveLeafsetErrors(t *testing.T) {
	if _, err := SolveLeafset(nil, 0, nil, LeafsetConfig{}); err == nil {
		t.Error("n=0 should fail")
	}
	_, lat := planted(6, 2, 1)
	for _, bad := range []int{6, -1} {
		nb := func(i int) []int {
			if i == 4 {
				return []int{5, bad}
			}
			return []int{(i + 1) % 6}
		}
		_, err := SolveLeafset(lat, 6, nb, LeafsetConfig{Dim: 2, Rounds: 1})
		if want := fmt.Sprintf("coords: host 4 has neighbor %d outside [0, 6)", bad); err == nil || err.Error() != want {
			t.Errorf("neighbor %d: err = %v, want %q", bad, err, want)
		}
	}
}

func TestSolveLeafsetIsolatedNode(t *testing.T) {
	// A node with no neighbors keeps its (random) coordinate without
	// crashing.
	_, lat := planted(4, 2, 7)
	got, err := SolveLeafset(lat, 4, func(i int) []int {
		if i == 0 {
			return nil
		}
		return []int{(i + 1) % 4}
	}, LeafsetConfig{Dim: 2, Rounds: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0] == nil {
		t.Fatal("isolated node lost its coordinate")
	}
}

func TestPairErrorsSkipsZero(t *testing.T) {
	coordsList := []Vector{{0, 0}, {1, 0}}
	lat := func(a, b int) float64 { return 0 }
	if got := PairErrors(coordsList, lat, [][2]int{{0, 1}}); len(got) != 0 {
		t.Error("zero-latency pairs should be skipped")
	}
}

func TestRandomPairsDistinct(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, p := range RandomPairs(10, 100, r) {
		if p[0] == p[1] {
			t.Fatal("pair with identical hosts")
		}
	}
}
