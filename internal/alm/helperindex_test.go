package alm

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestMetricIndexMatchesFullScan pins the helper search against the
// reference that scans every candidate and sorts the whole shortlist at
// every critical point (refPlan): with a metric scoring latency, the
// bucketed annulus index and the bounded top-k selection must pick
// exactly the helpers the reference picks — identical trees with
// MetricScore on and off. The cases cover both knowledge modes (scoring
// on the tree latency itself, and on a separate estimate with the verify
// stage), score ties from hosts at duplicate coordinates, VerifyTop of 1,
// the default 16 and more than the shortlist can hold, a radius larger
// than the world, and candidates arriving unsorted.
func TestMetricIndexMatchesFullScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 60 + r.Intn(120)
		type pt struct{ x, y float64 }
		pts := make([]pt, n)
		for i := range pts {
			pts[i] = pt{x: 300 * r.Float64(), y: 300 * r.Float64()}
			if i > 0 && r.Intn(4) == 0 {
				pts[i] = pts[r.Intn(i)] // co-located hosts: tied scores and keys
			}
		}
		lat := func(a, b int) float64 { return math.Hypot(pts[a].x-pts[b].x, pts[a].y-pts[b].y) }
		// A second metric standing in for coordinate estimates: the same
		// plane, mildly rescaled (still a metric).
		est := func(a, b int) float64 { return 1.1 * lat(a, b) }
		deg := make([]int, n)
		for i := range deg {
			deg[i] = 2 + r.Intn(8)
		}
		perm := r.Perm(n)
		groupSize := 10 + r.Intn(n/3)
		p := Problem{
			Root:    perm[0],
			Members: perm[1:groupSize],
			Latency: lat,
			Degree:  func(v int) int { return deg[v] },
		}
		radius := 40 + 80*r.Float64()
		cands := perm[groupSize:]
		hss := []HelperSet{
			{Candidates: cands, Radius: radius},
			{Candidates: cands, Radius: radius, Scoring: ScoreNearestParent},
			{Candidates: cands, Radius: radius, ScoreLatency: est},
			{Candidates: cands, Radius: radius, ScoreLatency: est, VerifyTop: 1},
			{Candidates: cands, Radius: radius, ScoreLatency: est, VerifyTop: 4},
			{Candidates: cands, Radius: radius, ScoreLatency: est, VerifyTop: 10 * n},
			{Candidates: cands, Radius: 1000},
			{Candidates: cands, Radius: 1000, ScoreLatency: est},
			{Candidates: cands, Radius: radius / 20, ScoreLatency: est},
		}
		for hi, hs := range hss {
			want, errWant := refPlan(p, hs)
			for _, metric := range []bool{false, true} {
				hs.MetricScore = metric
				got, err := plan(p, hs)
				if (err == nil) != (errWant == nil) {
					t.Fatalf("trial %d hs %d metric %v: error mismatch: plan=%v reference=%v", trial, hi, metric, err, errWant)
				}
				if err == nil && !sameTree(got, want) {
					t.Errorf("trial %d hs %d metric %v: helper search changed the tree", trial, hi, metric)
				}
			}
		}
	}
}

// TestTopKMatchesFullSort: the bounded selection returns the prefix a
// full sort would, for every k, duplicates included.
func TestTopKMatchesFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		s := make([]scored, 1+r.Intn(40))
		for i := range s {
			s[i] = scored{h: r.Intn(20), score: float64(r.Intn(6))}
		}
		want := slices.Clone(s)
		slices.SortFunc(want, cmpScored)
		for _, k := range []int{1, 2, 5, 16, len(s), len(s) + 3} {
			if got := topK(slices.Clone(s), k); !slices.Equal(got, want[:min(k, len(s))]) {
				t.Fatalf("trial %d k %d: topK = %v, sorted prefix = %v", trial, k, got, want[:min(k, len(s))])
			}
		}
	}
}
