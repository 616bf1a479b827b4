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
// bucketed annulus index and the running top-k selection, which drops a
// candidate as soon as its partial score ranks after the k-th best so
// far, must pick exactly the helpers the reference picks — identical
// trees with MetricScore on and off. The cases cover both knowledge
// modes (scoring on the tree latency itself, and on a separate estimate
// with the verify stage), score ties from hosts at duplicate
// coordinates, VerifyTop of 1, the default 16 and more than the
// shortlist can hold, a radius larger than the world, and candidates
// arriving unsorted. The stream-shaped trials plan rosters of 40 to 60
// members at MinDegree 2 on tight degree bounds, so a critical point
// has many future siblings and most candidates leave the sibling loop
// early.
func TestMetricIndexMatchesFullScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	shapes := []struct {
		name             string
		trials           int
		hosts, group     func() int
		minDegree, degLo int
	}{
		{"classic", 30, func() int { return 60 + r.Intn(120) }, nil, 0, 2},
		{"stream", 12, func() int { return 200 + r.Intn(100) }, func() int { return 41 + r.Intn(20) }, 2, 1},
	}
	for _, shape := range shapes {
		for trial := 0; trial < shape.trials; trial++ {
			n := shape.hosts()
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
				deg[i] = shape.degLo + r.Intn(8)
			}
			perm := r.Perm(n)
			groupSize := 10 + r.Intn(n/3)
			if shape.group != nil {
				groupSize = shape.group()
			}
			p := Problem{
				Root:    perm[0],
				Members: perm[1:groupSize],
				Latency: lat,
				Degree:  func(v int) int { return deg[v] },
			}
			radius := 40 + 80*r.Float64()
			cands := perm[groupSize:]
			md := shape.minDegree
			hss := []HelperSet{
				{Candidates: cands, Radius: radius},
				{Candidates: cands, Radius: radius, Scoring: ScoreNearestParent},
				{Candidates: cands, Radius: radius, ScoreLatency: est},
				{Candidates: cands, Radius: radius, ScoreLatency: est, VerifyTop: 1},
				{Candidates: cands, Radius: radius, ScoreLatency: est, VerifyTop: 4},
				{Candidates: cands, Radius: radius, ScoreLatency: est, VerifyTop: 16},
				{Candidates: cands, Radius: radius, ScoreLatency: est, VerifyTop: 10 * n},
				{Candidates: cands, Radius: 1000},
				{Candidates: cands, Radius: 1000, ScoreLatency: est},
				{Candidates: cands, Radius: radius / 20, ScoreLatency: est},
			}
			for hi, hs := range hss {
				hs.MinDegree = md
				want, errWant := refPlan(p, hs)
				for _, metric := range []bool{false, true} {
					hs.MetricScore = metric
					got, err := plan(p, hs)
					if (err == nil) != (errWant == nil) {
						t.Fatalf("%s trial %d hs %d metric %v: error mismatch: plan=%v reference=%v", shape.name, trial, hi, metric, err, errWant)
					}
					if err == nil && !sameTree(got, want) {
						t.Errorf("%s trial %d hs %d metric %v: helper search changed the tree", shape.name, trial, hi, metric)
					}
				}
			}
		}
	}
}

// TestTopKMatchesFullSort: the running selection, fed a list one entry
// at a time and offered only what beats its full list's last entry (as
// tryCandidate offers), ends as the prefix a full sort would give, for
// every k, duplicates included.
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
			var got []scored
			for _, c := range s {
				if len(got) < k || cmpScored(c, got[k-1]) < 0 {
					got = pushTopK(got, c, k)
				}
			}
			if !slices.Equal(got, want[:min(k, len(s))]) {
				t.Fatalf("trial %d k %d: running top-k = %v, sorted prefix = %v", trial, k, got, want[:min(k, len(s))])
			}
		}
	}
}

// TestHelperSearchStopsEarly counts the scoring-latency reads of one
// critical point on a fixed world: a root with one slot and twenty
// members of degree 1, so the first member is about to take the root's
// last slot with the other nineteen as future siblings, and 300
// candidates of degree 30, so the helper recruited there never fills and
// no second critical point comes. Scanning every candidate in full reads
// candidates × (1 + siblings) latencies, the siblings being that member
// and the nineteen; the running top-16 stops a candidate once its
// partial score ranks after the 16th best so far, and must read strictly
// fewer while picking the reference's helper.
func TestHelperSearchStopsEarly(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	const members, cands = 20, 300
	n := 1 + members + cands
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = 200*r.Float64(), 200*r.Float64()
	}
	lat := func(a, b int) float64 { return math.Hypot(xs[a]-xs[b], ys[a]-ys[b]) }
	calls := 0
	est := func(a, b int) float64 { calls++; return lat(a, b) }
	deg := func(v int) int {
		switch {
		case v == 0:
			return 1
		case v <= members:
			return 1
		}
		return 30
	}
	p := Problem{Root: 0, Latency: lat, Degree: deg}
	for m := 1; m <= members; m++ {
		p.Members = append(p.Members, m)
	}
	hs := HelperSet{ScoreLatency: est}
	for h := members + 1; h < n; h++ {
		hs.Candidates = append(hs.Candidates, h)
	}
	want, err := refPlan(p, hs)
	if err != nil {
		t.Fatal(err)
	}
	calls = 0
	got, err := plan(p, hs)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTree(got, want) {
		t.Fatal("the helper search picked another helper than the reference")
	}
	if helpers := got.Size() - 1 - members; helpers != 1 {
		t.Fatalf("%d helpers recruited; the world is built for exactly one critical point", helpers)
	}
	if full := cands * (1 + members); calls >= full {
		t.Errorf("one critical point read %d scoring latencies, a full scan reads %d", calls, full)
	} else {
		t.Logf("one critical point read %d scoring latencies, a full scan reads %d", calls, full)
	}
}
