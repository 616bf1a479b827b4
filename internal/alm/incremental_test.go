package alm

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refPlan is the pre-incremental reference planner: after every
// attachment it re-relaxes every remaining member over the whole tree.
// plan() must produce exactly the same trees with its incremental
// relaxation (same tie-break order, so not just equal heights but
// identical structure).
func refPlan(p Problem, hs HelperSet) (*Tree, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if hs.MinDegree <= 0 {
		hs.MinDegree = DefaultMinDegree
	}
	t := NewTree(p.Root)
	height := make(map[int]float64, len(p.Members))
	parent := make(map[int]int, len(p.Members))
	remaining := make(map[int]bool, len(p.Members))
	for _, m := range p.Members {
		height[m] = p.Latency(p.Root, m)
		parent[m] = p.Root
		remaining[m] = true
	}
	inSession := make(map[int]bool, len(p.Members)+1)
	inSession[p.Root] = true
	for _, m := range p.Members {
		inSession[m] = true
	}
	var candidates []int
	for _, c := range hs.Candidates {
		if !inSession[c] && p.Degree(c) >= hs.MinDegree {
			candidates = append(candidates, c)
		}
	}
	sort.Ints(candidates)
	treeHeight := map[int]float64{p.Root: 0}
	free := func(v int) int { return p.Degree(v) - t.Degree(v) }

	for len(remaining) > 0 {
		u, best := -1, math.Inf(1)
		for m := range remaining {
			if height[m] < best || (height[m] == best && (u == -1 || m < u)) {
				u, best = m, height[m]
			}
		}
		pu := parent[u]
		if free(pu) <= 0 {
			if ok := refRelaxOne(u, t, p, treeHeight, height, parent, free); !ok {
				return nil, errNoParent(u)
			}
			pu = parent[u]
		}
		attached := false
		if len(candidates) > 0 && free(pu) == 1 {
			if h, ok := refFindHelper(u, pu, t, p, hs, candidates, remaining, parent, free); ok {
				if err := t.Attach(h, pu); err != nil {
					return nil, err
				}
				treeHeight[h] = treeHeight[pu] + p.Latency(pu, h)
				if err := t.Attach(u, h); err != nil {
					return nil, err
				}
				treeHeight[u] = treeHeight[h] + p.Latency(h, u)
				attached = true
			}
		}
		if !attached {
			if err := t.Attach(u, pu); err != nil {
				return nil, err
			}
			treeHeight[u] = treeHeight[pu] + p.Latency(pu, u)
		}
		delete(remaining, u)
		for v := range remaining {
			if !refRelaxOne(v, t, p, treeHeight, height, parent, free) {
				return nil, errNoParent(v)
			}
		}
	}
	return t, nil
}

// refRelaxOne is the pre-rewrite map-based relaxation: v's best feasible
// attachment point over the whole tree.
func refRelaxOne(v int, t *Tree, p Problem, treeHeight map[int]float64,
	height map[int]float64, parent map[int]int, free func(int) int) bool {
	bestH, bestW := math.Inf(1), -1
	for _, w := range t.Nodes() {
		if free(w) <= 0 {
			continue
		}
		h := treeHeight[w] + p.Latency(w, v)
		if h < bestH || (h == bestH && (bestW == -1 || w < bestW)) {
			bestH, bestW = h, w
		}
	}
	if bestW == -1 {
		return false
	}
	height[v] = bestH
	parent[v] = bestW
	return true
}

// refFindHelper is the pre-rewrite helper search: a full scan of every
// candidate per critical point. The planner's indexed search must pick
// the same helper.
func refFindHelper(u, pu int, t *Tree, p Problem, hs HelperSet,
	candidates []int, remaining map[int]bool, parent map[int]int, free func(int) int) (int, bool) {

	sibs := []int{u}
	for v := range remaining {
		if v != u && parent[v] == pu {
			sibs = append(sibs, v)
		}
	}
	scoreLat := hs.ScoreLatency
	if scoreLat == nil {
		scoreLat = p.Latency
	}
	shortlistRadius := hs.Radius
	if hs.ScoreLatency != nil {
		shortlistRadius *= radiusSlack
	}
	var pass []scored
	for _, h := range candidates {
		if t.Contains(h) || free(h) < hs.MinDegree {
			continue
		}
		lp := scoreLat(h, pu)
		if shortlistRadius > 0 && lp >= shortlistRadius {
			continue
		}
		maxSib := 0.0
		if hs.Scoring == ScorePaper {
			for _, v := range sibs {
				if l := scoreLat(h, v); l > maxSib {
					maxSib = l
				}
			}
		}
		pass = append(pass, scored{h: h, score: lp + maxSib})
	}
	if len(pass) == 0 {
		return 0, false
	}
	sort.Slice(pass, func(i, j int) bool {
		if pass[i].score != pass[j].score {
			return pass[i].score < pass[j].score
		}
		return pass[i].h < pass[j].h
	})
	if hs.ScoreLatency == nil {
		return pass[0].h, true
	}
	verify := hs.VerifyTop
	if verify <= 0 {
		verify = 16
	}
	bestScore, best := math.Inf(1), -1
	for i := 0; i < len(pass) && i < verify; i++ {
		h := pass[i].h
		lp := p.Latency(h, pu)
		if hs.Radius > 0 && lp >= hs.Radius {
			continue
		}
		maxSib := 0.0
		if hs.Scoring == ScorePaper {
			for _, v := range sibs {
				if l := p.Latency(h, v); l > maxSib {
					maxSib = l
				}
			}
		}
		if score := lp + maxSib; score < bestScore {
			bestScore, best = score, h
		}
	}
	if best == -1 {
		return 0, false
	}
	return best, true
}

type errNoParent int

func (e errNoParent) Error() string { return "no feasible parent" }

func sameTree(a, b *Tree) bool {
	if a.Root != b.Root || a.Size() != b.Size() {
		return false
	}
	for _, v := range a.Nodes() {
		pa, oka := a.Parent(v)
		pb, okb := b.Parent(v)
		if oka != okb || pa != pb {
			return false
		}
	}
	return true
}

// randLatency builds a symmetric random latency matrix.
func randLatency(n int, r *rand.Rand) LatencyFunc {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l := 5 + 200*r.Float64()
			m[i][j], m[j][i] = l, l
		}
	}
	return func(a, b int) float64 { return m[a][b] }
}

func TestIncrementalRelaxMatchesFullRelax(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 30 + r.Intn(60)
		lat := randLatency(n, r)
		deg := make([]int, n)
		for i := range deg {
			deg[i] = 2 + r.Intn(8)
		}
		perm := r.Perm(n)
		groupSize := 5 + r.Intn(n/2)
		p := Problem{
			Root:    perm[0],
			Members: perm[1:groupSize],
			Latency: lat,
			Degree:  func(v int) int { return deg[v] },
		}
		// Members only (AMCast) and with the rest of the population as
		// helper candidates (critical-node algorithm).
		var hss []HelperSet
		hss = append(hss, HelperSet{})
		hss = append(hss, HelperSet{Candidates: perm[groupSize:], Radius: 100})
		hss = append(hss, HelperSet{Candidates: perm[groupSize:], Radius: 150, Scoring: ScoreNearestParent})
		for hi, hs := range hss {
			got, err1 := plan(p, hs)
			want, err2 := refPlan(p, hs)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("trial %d hs %d: error mismatch: plan=%v ref=%v", trial, hi, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if !sameTree(got, want) {
				t.Errorf("trial %d hs %d: incremental tree differs from full-relax reference", trial, hi)
			}
		}
	}
}
