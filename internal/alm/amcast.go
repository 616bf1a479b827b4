package alm

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// HelperSet describes the spare resources a planner may recruit
// (Section 5.2's critical-node algorithm). A nil/empty set reduces
// PlanWithHelpers to plain AMCast.
type HelperSet struct {
	// Candidates are the pool nodes a helper may be drawn from, in any
	// order. A caller may pass any pool hosts: plan drops the root and
	// members (condition 1) and every node whose Problem.Degree is under
	// MinDegree (condition 2), once per plan against the live Degree, and
	// no other code judges a candidate.
	Candidates []int
	// Radius R: a helper must lie within R (scoring latency) of the
	// saturating parent — condition 3. The paper finds R in 50–150
	// effective for its topology.
	Radius float64
	// MinDegree is condition 2: a useful helper needs spare fan-out
	// (the paper uses 4).
	MinDegree int
	// ScoreLatency, when set, is the latency knowledge used for
	// "vicinity judgment" — the radius check and the candidate score
	// l(h,parent)+max l(h,sib). The paper's Leafset variant judges
	// vicinity with coordinate estimates while the tree itself is built
	// on measured latencies (a task manager measures the few candidates
	// it actually contacts). Nil means use Problem.Latency.
	ScoreLatency LatencyFunc
	// VerifyTop only applies when ScoreLatency is set: the task manager
	// contacts the VerifyTop best-scored candidates, measures them, and
	// picks the best by measured score among those that truly honor the
	// radius — rejecting estimate-induced junk (underpredicted far
	// nodes would otherwise be adversely selected). Default 16.
	VerifyTop int
	// Scoring selects the candidate-ranking heuristic.
	Scoring Scoring
	// MetricScore declares that the scoring latency is a metric
	// (symmetric, triangle inequality) — true for both built-in
	// sources, topology shortest-path latency and coordinate distance.
	// It lets the planner replace the per-critical-point full candidate
	// scan with a range query on a root-anchored distance index; the
	// pruning is exact under the metric properties, so the selected
	// helpers (and the resulting tree) are identical either way. Leave
	// it false for arbitrary latency functions.
	MetricScore bool
}

// Scoring is the helper-ranking heuristic.
type Scoring int

const (
	// ScorePaper is the paper's heuristic: minimize
	// l(h, parent(u)) + max over future siblings v of l(h, v).
	ScorePaper Scoring = iota
	// ScoreNearestParent is the paper's "first variation": simply the
	// candidate closest to the saturating parent (with adequate
	// degree). The paper found ScorePaper to yield better trees; the
	// ablation bench reproduces that comparison.
	ScoreNearestParent
)

// DefaultMinDegree is the paper's helper degree requirement.
const DefaultMinDegree = 4

// radiusSlack only applies when ScoreLatency is set: the estimated
// radius check is relaxed to Radius*radiusSlack when building the
// shortlist, because coordinate schemes systematically overpredict
// short distances (nearby nodes share no reference frame); the
// measured check at verification still enforces Radius.
const radiusSlack = 2

// AMCast runs the baseline greedy DB-MHT heuristic of Shi et al. [34]
// (Figure 6 of the paper, without the dashed box): repeatedly absorb
// the lowest-height unattached member, then re-relax every remaining
// member's best feasible parent.
func AMCast(p Problem) (*Tree, error) {
	return plan(p, HelperSet{})
}

// PlanWithHelpers runs the critical-node algorithm: AMCast's greedy
// loop, but when a node is about to take its parent's last free slot, a
// helper is recruited from the pool to take that slot instead, becoming
// the node's (and its future siblings') parent. p.Latency is the
// planning latency — pass coordinate-predicted latency for the paper's
// "Leafset" variant and the true oracle for "Critical".
func PlanWithHelpers(p Problem, hs HelperSet) (*Tree, error) {
	return plan(p, hs)
}

// planner carries the working state of one plan() run. Everything is
// slice-indexed — members by position, attached tree nodes by attach
// order — so the O(g²) relaxation inner loops touch compact arrays
// instead of hashing node ids, and every scratch buffer lives for the
// whole plan instead of being reallocated per iteration. Planners are
// recycled through plannerPool, so the candidate-sized buffers are not
// reallocated per plan either; plan() resets every field it reads.
type planner struct {
	p  Problem
	hs HelperSet
	t  *Tree

	// Unattached members, tracked by position in p.Members.
	height    []float64 // planner's height estimate via parent
	parent    []int     // best feasible parent (node id)
	remaining []int     // member positions still unattached

	// Attached tree nodes, in attach order (root first).
	attIDs    []int
	attHeight []float64
	attFree   []int
	attPos    map[int]int // node id -> index in the att* slices

	// Helper search state.
	session         []int // scratch: root and members, ascending
	candidates      []int // filtered candidate ids, in the caller's order
	scoreLat        LatencyFunc
	shortlistRadius float64
	sibs            []int // scratch: future siblings
	// pass is the best keep shortlisted candidates of one critical point
	// so far, in cmpScored order: the one helper picked, or the VerifyTop
	// the task manager measures when vicinity is judged on estimates.
	pass []scored
	keep int

	// The annulus index (indexed is false when pruning is off): index
	// holds the candidates grouped by key bucket, bucket b being
	// index[bucketStart[b]:bucketStart[b+1]] and holding the keys k with
	// floor(k*bucketInv) == b.
	indexed     bool
	keys        []float64 // scratch: key per candidate, before grouping
	index       []candKey
	bucketStart []int
	bucketInv   float64
}

// plannerPool lets concurrent plans each take a planner of their own
// and hand its buffers to the next plan when they finish.
var plannerPool = sync.Pool{New: func() any { return new(planner) }}

// resize returns s with length n, reusing its array when large enough;
// the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// candKey anchors a candidate at its scoring distance from the root;
// by the triangle inequality every candidate within r of any node x
// has |key(h) - key(x)| <= r, so an annulus around key(x) is a
// superset of the radius ball and the full scan can be replaced by a
// walk over the key buckets the annulus overlaps.
type candKey struct {
	key float64
	h   int
}

type scored struct {
	h     int
	score float64
}

// cmpScored is the shortlist order: by score, then by candidate id — a
// strict total order over distinct candidates, so what is selected
// never depends on the order candidates were examined in.
func cmpScored(a, b scored) int {
	switch {
	case a.score < b.score || (a.score == b.score && a.h < b.h):
		return -1
	case a == b:
		return 0
	}
	return 1
}

// pushTopK adds c to head, the k smallest entries so far under
// cmpScored in order, and returns the k smallest with c: fed every entry
// of a list, it ends as that list's sorted prefix of length k. c must
// beat head's last entry when head is full (the caller's bound).
func pushTopK(head []scored, c scored, k int) []scored {
	if len(head) == k {
		head = head[:k-1]
	}
	i, _ := slices.BinarySearchFunc(head, c, cmpScored)
	return slices.Insert(head, i, c)
}

// keyEps widens the annulus bounds to absorb floating-point rounding in
// the key arithmetic; latencies are O(100 ms), so 1e-6 is far above any
// accumulated ulp error while never admitting a meaningfully-far node
// (the exact radius check still runs on every surviving candidate).
const keyEps = 1e-6

func plan(p Problem, hs HelperSet) (*Tree, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if hs.MinDegree <= 0 {
		hs.MinDegree = DefaultMinDegree
	}

	pl := plannerPool.Get().(*planner)
	defer func() {
		pl.p, pl.hs, pl.t, pl.scoreLat = Problem{}, HelperSet{}, nil, nil
		plannerPool.Put(pl)
	}()
	pl.p, pl.hs, pl.t = p, hs, NewTree(p.Root)
	g := len(p.Members)
	pl.height = resize(pl.height, g)
	pl.parent = resize(pl.parent, g)
	pl.remaining = resize(pl.remaining, g)
	for i, m := range p.Members {
		pl.height[i] = p.Latency(p.Root, m)
		pl.parent[i] = p.Root
		pl.remaining[i] = i
	}

	pl.attIDs = append(pl.attIDs[:0], p.Root)
	pl.attHeight = append(pl.attHeight[:0], 0)
	pl.attFree = append(pl.attFree[:0], p.Degree(p.Root))
	if pl.attPos == nil {
		pl.attPos = make(map[int]int, g+1)
	}
	clear(pl.attPos)
	pl.attPos[p.Root] = 0

	pl.session = append(append(pl.session[:0], p.Root), p.Members...)
	slices.Sort(pl.session)
	// Candidate helpers, filtered once, here alone (HelperSet.Candidates).
	// Candidates outside the tree keep free degree == p.Degree (nothing
	// attaches to a node not in the tree), so the MinDegree filter here
	// is the only degree check the helper search needs. The order
	// candidates arrive in is kept: helper selection is by a strict total
	// order, so it never matters.
	pl.candidates = pl.candidates[:0]
	for _, c := range hs.Candidates {
		if _, in := slices.BinarySearch(pl.session, c); !in && p.Degree(c) >= hs.MinDegree {
			pl.candidates = append(pl.candidates, c)
		}
	}
	pl.buildHelperIndex()

	// added collects the att-positions of nodes attached in one
	// iteration — the only new parent candidates the incremental
	// relaxation below must consider.
	var added []int

	for len(pl.remaining) > 0 {
		// Find the unattached member with minimum (height, id).
		ri, u, best := -1, -1, math.Inf(1)
		for i, pos := range pl.remaining {
			m := p.Members[pos]
			if pl.height[pos] < best || (pl.height[pos] == best && (u == -1 || m < u)) {
				ri, u, best = i, m, pl.height[pos]
			}
		}
		// u's cached parent has a free slot: the first parent of every
		// member is the root, which Validate requires to have one, and
		// each iteration ends by re-relaxing every member whose cached
		// parent filled up, helper insertions included.
		uPos := pl.remaining[ri]
		pu := pl.parent[uPos]

		added = added[:0]
		if len(pl.candidates) > 0 && pl.free(pu) == 1 {
			// Critical point: u would take pu's last slot. Try to
			// recruit a helper to take it instead.
			if h, ok := pl.findHelper(u, uPos, pu); ok {
				if err := pl.attach(h, pu); err != nil {
					return nil, err
				}
				if err := pl.attach(u, h); err != nil {
					return nil, err
				}
				added = append(added, pl.attPos[h], pl.attPos[u])
			}
		}
		if len(added) == 0 {
			if err := pl.attach(u, pu); err != nil {
				return nil, err
			}
			added = append(added, pl.attPos[u])
		}
		last := len(pl.remaining) - 1
		pl.remaining[ri] = pl.remaining[last]
		pl.remaining = pl.remaining[:last]

		// Incremental relaxation. A full pass over the tree is not
		// needed: attachments never change an existing node's height and
		// free degree only shrinks, so a member's cached (height, parent)
		// remains the minimum over the old tree as long as that parent
		// keeps a free slot. Only two updates can change a member's best:
		// the nodes just attached become new candidates, and a cached
		// parent that just saturated invalidates the cache. Comparisons
		// use the same (height, node-id) order as relaxOne — a running
		// minimum under a total order — so both the added/member loop
		// interchange here and the slice iteration produce the tree the
		// full re-relaxation would.
		for _, ap := range added {
			if pl.attFree[ap] <= 0 {
				continue
			}
			w, wh := pl.attIDs[ap], pl.attHeight[ap]
			for _, pos := range pl.remaining {
				h := wh + p.Latency(w, p.Members[pos])
				if h < pl.height[pos] || (h == pl.height[pos] && w < pl.parent[pos]) {
					pl.height[pos], pl.parent[pos] = h, w
				}
			}
		}
		for _, pos := range pl.remaining {
			if pl.free(pl.parent[pos]) <= 0 {
				if !pl.relaxOne(pos) {
					return nil, fmt.Errorf("alm: no feasible parent for member %d (degree bounds too tight)", p.Members[pos])
				}
			}
		}
	}
	return pl.t, nil
}

// free returns the remaining fan-out of an attached node.
func (pl *planner) free(v int) int { return pl.attFree[pl.attPos[v]] }

// attach puts v under pu in the tree and extends the attach-order state.
func (pl *planner) attach(v, pu int) error {
	if err := pl.t.Attach(v, pu); err != nil {
		return err
	}
	pp := pl.attPos[pu]
	pl.attFree[pp]--
	pl.attPos[v] = len(pl.attIDs)
	pl.attIDs = append(pl.attIDs, v)
	pl.attHeight = append(pl.attHeight, pl.attHeight[pp]+pl.p.Latency(pu, v))
	pl.attFree = append(pl.attFree, pl.p.Degree(v)-1) // the parent edge consumes one slot
	return nil
}

// relaxOne recomputes member pos's best feasible attachment point over
// the current tree. It reports false when no tree node has free degree.
func (pl *planner) relaxOne(pos int) bool {
	v := pl.p.Members[pos]
	bestH, bestW := math.Inf(1), -1
	for i, w := range pl.attIDs {
		if pl.attFree[i] <= 0 {
			continue
		}
		h := pl.attHeight[i] + pl.p.Latency(w, v)
		if h < bestH || (h == bestH && (bestW == -1 || w < bestW)) {
			bestH, bestW = h, w
		}
	}
	if bestW == -1 {
		return false
	}
	pl.height[pos] = bestH
	pl.parent[pos] = bestW
	return true
}

// buildHelperIndex precomputes the helper-search state: the effective
// scoring latency, the shortlist radius and length, and — when the
// radius is positive and the score is a metric — the root-anchored
// candidate index that findHelper range-queries instead of scanning
// every candidate per critical point. Building it is one scoring-latency call
// per candidate and a counting sort into key buckets a quarter-radius
// wide (never more buckets than candidates); an exact order would buy
// nothing, since an annulus query filters by key either way.
func (pl *planner) buildHelperIndex() {
	pl.scoreLat = pl.hs.ScoreLatency
	if pl.scoreLat == nil {
		pl.scoreLat = pl.p.Latency
	}
	pl.shortlistRadius = pl.hs.Radius
	pl.keep = 1
	if pl.hs.ScoreLatency != nil {
		pl.shortlistRadius *= radiusSlack
		pl.keep = pl.hs.VerifyTop
		if pl.keep <= 0 {
			pl.keep = 16
		}
	}
	n := len(pl.candidates)
	pl.indexed = n > 0 && pl.shortlistRadius > 0 && pl.hs.MetricScore
	if !pl.indexed {
		return
	}
	pl.keys = resize(pl.keys, n)
	maxKey := 0.0
	for i, h := range pl.candidates {
		pl.keys[i] = pl.scoreLat(h, pl.p.Root)
		maxKey = max(maxKey, pl.keys[i])
	}
	width := max(pl.shortlistRadius/4, maxKey/float64(n))
	buckets := n
	if f := maxKey / width; f < float64(n) {
		buckets = int(f) + 1
	}
	pl.bucketInv = 1 / width
	// Counting sort. Counts go in two places up, so that after the prefix
	// sum start[b+1] is where bucket b begins, and after the scatter has
	// advanced it past the bucket's entries, where bucket b+1 does.
	start := resize(pl.bucketStart, buckets+2)
	clear(start)
	pl.bucketStart = start[:buckets+1]
	for _, k := range pl.keys {
		start[pl.bucket(k)+2]++
	}
	for b := 2; b < len(start); b++ {
		start[b] += start[b-1]
	}
	pl.index = resize(pl.index, n)
	for i, h := range pl.candidates {
		b := pl.bucket(pl.keys[i])
		pl.index[start[b+1]] = candKey{key: pl.keys[i], h: h}
		start[b+1]++
	}
}

// bucket maps a key to its bucket, monotonically, clamping keys outside
// the indexed range (an annulus bound may be negative or beyond every
// candidate) to the first and last bucket.
func (pl *planner) bucket(key float64) int {
	n := len(pl.bucketStart) - 1
	f := key * pl.bucketInv
	switch {
	case f >= float64(n):
		return n - 1
	case f > 0:
		return int(f)
	}
	return 0
}

// findHelper implements the paper's helper-selection heuristic: among
// pool candidates within Radius of the saturating parent and with
// adequate degree, pick the one minimizing
//
//	l(h, parent(u)) + max over future siblings v of l(h, v)
//
// where the future siblings are the unattached members whose current
// best parent is parent(u) (they would become h's children).
func (pl *planner) findHelper(u, uPos, pu int) (int, bool) {
	// Future siblings: u plus every remaining member pointing at pu.
	pl.sibs = pl.sibs[:0]
	pl.sibs = append(pl.sibs, u)
	for _, pos := range pl.remaining {
		if pos != uPos && pl.parent[pos] == pu {
			pl.sibs = append(pl.sibs, pl.p.Members[pos])
		}
	}

	pl.pass = pl.pass[:0]
	if pl.indexed {
		// Annulus query: candidates with scoreLat(h, pu) < radius all
		// satisfy |key(h) - key(pu)| < radius (triangle inequality), so
		// only that key range needs the exact check.
		kpu := pl.scoreLat(pu, pl.p.Root)
		lo, hi := kpu-pl.shortlistRadius-keyEps, kpu+pl.shortlistRadius+keyEps
		for _, c := range pl.index[pl.bucketStart[pl.bucket(lo)]:pl.bucketStart[pl.bucket(hi)+1]] {
			if c.key >= lo && c.key <= hi {
				pl.tryCandidate(c.h, pu)
			}
		}
	} else {
		for _, h := range pl.candidates {
			pl.tryCandidate(h, pu)
		}
	}
	if len(pl.pass) == 0 {
		return 0, false
	}
	// (score, h) is a strict total order — candidate ids are unique —
	// so the best entries are the same whatever order tryCandidate
	// offered them in; bucket-order and id-order scans select the same
	// helper.
	if pl.hs.ScoreLatency == nil {
		return pl.pass[0].h, true
	}
	// Vicinity was judged on estimates, which only narrows the pool to
	// a shortlist; the task manager then contacts the shortlisted
	// candidates (it must talk to a helper to reserve it anyway),
	// measures them, and picks the best by measured score among those
	// that truly honor the radius.
	bestScore, best := math.Inf(1), -1
	for _, c := range pl.pass {
		h := c.h
		lp := pl.p.Latency(h, pu)
		if pl.hs.Radius > 0 && lp >= pl.hs.Radius {
			continue
		}
		maxSib := 0.0
		if pl.hs.Scoring == ScorePaper {
			for _, v := range pl.sibs {
				if l := pl.p.Latency(h, v); l > maxSib {
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

// tryCandidate applies the shortlist conditions to one candidate and
// keeps it in the pass list when it qualifies and ranks among the best
// keep so far. Once the list is full its last entry bounds the search: a
// score only grows as sibling latencies are read (IEEE addition is
// monotone), so a candidate whose partial score already ranks after that
// entry is dropped without reading the rest. Because (score, h) is a
// strict total order, the list ends as the prefix a full sort of every
// qualifying candidate would give.
func (pl *planner) tryCandidate(h, pu int) {
	if pl.t.Contains(h) {
		return
	}
	lp := pl.scoreLat(h, pu)
	if pl.shortlistRadius > 0 && lp >= pl.shortlistRadius {
		return // condition 3: avoid far-away "junk" nodes
	}
	full := len(pl.pass) == pl.keep
	ranksAfter := func(score float64) bool {
		return full && cmpScored(scored{h: h, score: score}, pl.pass[pl.keep-1]) > 0
	}
	if ranksAfter(lp) {
		return
	}
	maxSib := 0.0
	if pl.hs.Scoring == ScorePaper {
		for _, v := range pl.sibs {
			if l := pl.scoreLat(h, v); l > maxSib {
				maxSib = l
				if ranksAfter(lp + maxSib) {
					return
				}
			}
		}
	}
	pl.pass = pushTopK(pl.pass, scored{h: h, score: lp + maxSib}, pl.keep) // condition 1
}
