package alm

// The evaluation path Adjust and Repair used before the flat view
// (view.go): apply a candidate to the map-backed Tree, walk the whole
// tree for its maximum height, undo it. The function bodies are kept
// verbatim, under ref* names, as the model the differential and fuzz
// tests below compare the view-based code against — parent map and
// every ordered child list, because apply-and-undo leaves a trace in
// child order and the data plane forwards in that order (DESIGN.md §7).

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refAdjust is Adjust as it was: every candidate applied, walked, undone.
func refAdjust(t *Tree, lat LatencyFunc, bound DegreeFunc) int {
	const maxMoves = 1000 // safety valve; convergence is monotone
	hsc := newHeightScratch(t)
	moves := 0
	for moves < maxMoves {
		if !refAdjustOnce(t, lat, bound, hsc) {
			break
		}
		moves++
	}
	return moves
}

// refAdjustOnce tries moves (a), (b), (c) in order on the current highest
// node and applies the first that strictly lowers max height.
func refAdjustOnce(t *Tree, lat LatencyFunc, bound DegreeFunc, hsc *heightScratch) bool {
	if t.Size() < 3 {
		return false
	}
	cur := hsc.maxHeight(t, lat)
	x := hsc.highestNode(t, lat)
	if x == t.Root {
		return false
	}
	if refMoveReparent(t, x, cur, lat, bound, hsc) {
		return true
	}
	if refMoveSwapLeaf(t, x, cur, lat, hsc) {
		return true
	}
	if refMoveSwapSubtree(t, x, cur, lat, hsc) {
		return true
	}
	return false
}

// refMoveReparent (a): attach the highest node under the parent that
// minimizes the resulting max height, if strictly better.
func refMoveReparent(t *Tree, x int, cur float64, lat LatencyFunc, bound DegreeFunc, hsc *heightScratch) bool {
	oldParent, _ := t.Parent(x)
	bestParent, bestMax := -1, cur
	for _, w := range t.Nodes() {
		if w == x || w == oldParent || t.isAncestor(x, w) {
			continue
		}
		if bound != nil && t.Degree(w) >= bound(w) {
			continue
		}
		t.reattach(x, w)
		if m := hsc.maxHeight(t, lat); m < bestMax {
			bestMax, bestParent = m, w
		}
		t.reattach(x, oldParent)
	}
	if bestParent == -1 {
		return false
	}
	t.reattach(x, bestParent)
	return true
}

// refMoveSwapLeaf (b): exchange the highest node's position with another
// leaf, if strictly better. (The highest node is always a leaf since
// latencies are positive.)
func refMoveSwapLeaf(t *Tree, x int, cur float64, lat LatencyFunc, hsc *heightScratch) bool {
	if len(t.Children(x)) > 0 {
		return false
	}
	bestLeaf, bestMax := -1, cur
	for _, y := range t.Nodes() {
		if y == x || y == t.Root || len(t.Children(y)) > 0 {
			continue
		}
		if py, _ := t.Parent(y); py == mustParent(t, x) {
			continue // same parent: swap is a no-op
		}
		t.swapPositions(x, y)
		if m := hsc.maxHeight(t, lat); m < bestMax {
			bestMax, bestLeaf = m, y
		}
		t.swapPositions(x, y)
	}
	if bestLeaf == -1 {
		return false
	}
	t.swapPositions(x, bestLeaf)
	return true
}

// refMoveSwapSubtree (c): exchange the subtree rooted at the highest
// node's parent with another subtree, if strictly better.
func refMoveSwapSubtree(t *Tree, x int, cur float64, lat LatencyFunc, hsc *heightScratch) bool {
	px, ok := t.Parent(x)
	if !ok || px == t.Root {
		return false
	}
	bestQ, bestMax := -1, cur
	for _, q := range t.Nodes() {
		if q == t.Root || q == px {
			continue
		}
		// The two subtree roots must be position-swappable: neither an
		// ancestor of the other.
		if t.isAncestor(px, q) || t.isAncestor(q, px) {
			continue
		}
		t.swapSubtrees(px, q)
		if m := hsc.maxHeight(t, lat); m < bestMax {
			bestMax, bestQ = m, q
		}
		t.swapSubtrees(px, q)
	}
	if bestQ == -1 {
		return false
	}
	t.swapSubtrees(px, bestQ)
	return true
}

func mustParent(t *Tree, v int) int {
	p, _ := t.Parent(v)
	return p
}

// heightScratch reuses BFS buffers across repeated height evaluations
// on one tree. Adjust and Repair evaluate MaxHeight once per candidate
// move — hundreds of evaluations per call. Heights are indexed by BFS
// visit position, parallel to the queue, so the buffers are the size of
// the tree whatever the host ids are, and the max/argmax reductions run
// over two compact slices. Ties break by node id, so results match the
// allocating Tree methods exactly. Not safe for concurrent use: every
// caller owns its scratch.
type heightScratch struct {
	h     []float64
	queue []int
}

func newHeightScratch(t *Tree) *heightScratch {
	return &heightScratch{h: make([]float64, 0, t.Size()), queue: make([]int, 0, t.Size())}
}

// bfs walks the tree from the root and returns the visit order with each
// visited node's height at the same index; both slices are valid until
// the next call on s.
func (s *heightScratch) bfs(t *Tree, lat LatencyFunc) ([]int, []float64) {
	q, h := append(s.queue[:0], t.Root), append(s.h[:0], 0)
	for head := 0; head < len(q); head++ {
		v, hv := q[head], h[head]
		for _, c := range t.children[v] {
			q, h = append(q, c), append(h, hv+lat(v, c))
		}
	}
	s.queue, s.h = q, h
	return q, h
}

// maxHeight is Tree.MaxHeight on reused buffers.
func (s *heightScratch) maxHeight(t *Tree, lat LatencyFunc) float64 {
	max := 0.0
	_, hs := s.bfs(t, lat)
	for _, h := range hs {
		if h > max {
			max = h
		}
	}
	return max
}

// highestNode returns the node with the largest height under lat, the
// lowest id among equals (the root for a singleton tree), on reused
// buffers.
func (s *heightScratch) highestNode(t *Tree, lat LatencyFunc) int {
	best, bestH := t.Root, -1.0
	q, hs := s.bfs(t, lat)
	for i, v := range q {
		if h := hs[i]; h > bestH || (h == bestH && v < best) {
			best, bestH = v, h
		}
	}
	return best
}

// isAncestor reports whether a is an ancestor of b (or equal).
func (t *Tree) isAncestor(a, b int) bool {
	for {
		if a == b {
			return true
		}
		p, ok := t.parent[b]
		if !ok {
			return false
		}
		b = p
	}
}

// refRepair is Repair as it was: the orphan sort measuring subtrees
// inside its comparator, every candidate parent tried by attaching the
// orphan, walking the tree and detaching it, then refAdjust.
func refRepair(t *Tree, dead []int, lat LatencyFunc, bound DegreeFunc) (RepairResult, error) {
	var res RepairResult
	deadSet := make(map[int]bool, len(dead))
	for _, v := range dead {
		if v == t.Root {
			return res, fmt.Errorf("alm: root %d died; tree cannot be repaired", v)
		}
		deadSet[v] = true
	}

	// Detach every dead node. A dead node may sit inside a subtree
	// orphaned by another dead node, so detachment tolerates nodes whose
	// parent pointer is already gone.
	order := make([]int, 0, len(deadSet))
	for v := range deadSet {
		order = append(order, v)
	}
	sort.Ints(order)
	var orphans []int
	for _, v := range order {
		if p, ok := t.parent[v]; ok {
			t.children[p] = removeOne(t.children[p], v)
			delete(t.parent, v)
		} else if len(t.children[v]) == 0 {
			continue // was not in the tree at all
		}
		for _, c := range t.children[v] {
			delete(t.parent, c)
			orphans = append(orphans, c)
		}
		delete(t.children, v)
		res.Removed++
	}

	// Orphan roots that are themselves dead were handled above.
	live := orphans[:0]
	for _, o := range orphans {
		if !deadSet[o] {
			live = append(live, o)
		}
	}
	// Largest subtrees first: they constrain placement the most.
	sort.Slice(live, func(i, j int) bool {
		si, sj := len(t.Subtree(live[i])), len(t.Subtree(live[j]))
		if si != sj {
			return si > sj
		}
		return live[i] < live[j]
	})

	hsc := newHeightScratch(t)
	for _, o := range live {
		// Candidate parents are the nodes reachable from the root via
		// children lists — Nodes() would also report descendants of
		// still-detached subtrees, which must not adopt anyone yet.
		reach := t.Subtree(t.Root)
		sort.Ints(reach)
		bestW, bestMax := -1, math.Inf(1)
		for _, w := range reach {
			if bound != nil && t.Degree(w) >= bound(w) {
				continue
			}
			t.parent[o] = w
			t.children[w] = append(t.children[w], o)
			if m := hsc.maxHeight(t, lat); m < bestMax {
				bestMax, bestW = m, w
			}
			t.children[w] = removeOne(t.children[w], o)
			delete(t.parent, o)
		}
		if bestW == -1 {
			return res, fmt.Errorf("alm: no spare degree to reattach subtree at %d", o)
		}
		t.parent[o] = bestW
		t.children[bestW] = append(t.children[bestW], o)
		res.Reattached++
	}

	res.AdjustMoves = refAdjust(t, lat, bound)
	return res, nil
}

// diffCase is one randomly drawn instance for the differential tests:
// a connected tree over sparse host ids in random child order, a
// latency function and a degree bound.
type diffCase struct {
	tree  *Tree
	ids   []int // every node, root first, in attach order
	lat   LatencyFunc
	bound DegreeFunc
}

// drawCase builds a case from the fuzz inputs. latMode picks how
// latencies are quantised — the coarse modes make exact height ties and
// zero-latency edges (so the highest node is sometimes internal) the
// rule, and the 0.1-step mode makes any reassociated sum differ in its
// last bit. boundMode picks how much spare degree the nodes have: no
// bound at all, or none to plenty.
func drawCase(seed int64, size, latMode, boundMode uint8) diffCase {
	r := rand.New(rand.NewSource(seed))
	n := 3 + int(size)%70
	seen := map[int]bool{}
	ids := make([]int, 0, n)
	for len(ids) < n {
		if id := r.Intn(10 * n); !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	maxKids := 1 + r.Intn(5)
	tr := NewTree(ids[0])
	for i, v := range ids[1:] {
		for {
			if p := ids[r.Intn(i+1)]; len(tr.Children(p)) < maxKids {
				tr.Attach(v, p)
				break
			}
		}
	}

	salt := uint64(r.Int63())
	lat := func(a, b int) float64 {
		// splitmix64 of the ordered pair: a pure function, not symmetric.
		z := salt + uint64(a)*0x9e3779b97f4a7c15 + uint64(b)*0xbf58476d1ce4e5b9
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		switch latMode % 4 {
		case 0: // continuous
			return 5 + float64(z%(1<<40))/float64(1<<40)*195
		case 1: // 0, 1 or 2: ties everywhere, a third of the edges free
			return float64(z % 3)
		case 2: // steps of 0.1: ties between sums that do not reassociate
			return float64(1+z%3) * 0.1
		default: // a few long edges among free ones
			if z%4 == 0 {
				return float64(1+z%5) * 12.5
			}
			return 0
		}
	}

	// Spare degree beyond what the drawn tree uses: none at all, for one
	// node in eight, for half of them, or one to three everywhere.
	slack := make(map[int]int, n)
	for _, v := range ids {
		switch boundMode % 5 {
		case 2:
			if r.Intn(8) == 0 {
				slack[v] = 1
			}
		case 3:
			slack[v] = r.Intn(2)
		case 4:
			slack[v] = 1 + r.Intn(3)
		}
	}
	var bound DegreeFunc
	if boundMode%5 != 0 {
		start := tr.Clone()
		bound = func(v int) int { return start.Degree(v) + slack[v] }
	}
	return diffCase{tree: tr, ids: ids, lat: lat, bound: bound}
}

// diffTrees reports the first difference between two trees: root,
// parent map, or any node's ordered child list.
func diffTrees(got, want *Tree) string {
	if got.Root != want.Root {
		return fmt.Sprintf("root %d, want %d", got.Root, want.Root)
	}
	if len(got.parent) != len(want.parent) {
		return fmt.Sprintf("%d parent entries, want %d", len(got.parent), len(want.parent))
	}
	for _, v := range want.Nodes() {
		if gp, wp := got.parent[v], want.parent[v]; gp != wp {
			return fmt.Sprintf("parent of %d is %d, want %d", v, gp, wp)
		}
	}
	for _, tr := range []*Tree{got, want} {
		for v := range tr.children {
			if g, w := got.children[v], want.children[v]; !slices.Equal(g, w) {
				return fmt.Sprintf("children of %d are %v, want %v", v, g, w)
			}
		}
	}
	return ""
}

func checkAdjustMatchesReference(t *testing.T, seed int64, size, latMode, boundMode uint8) {
	t.Helper()
	c := drawCase(seed, size, latMode, boundMode)
	want := c.tree.Clone()
	wantMoves := refAdjust(want, c.lat, c.bound)
	gotMoves := Adjust(c.tree, c.lat, c.bound)
	if gotMoves != wantMoves {
		t.Errorf("case (%d,%d,%d,%d): %d moves, reference %d", seed, size, latMode, boundMode, gotMoves, wantMoves)
	}
	if d := diffTrees(c.tree, want); d != "" {
		t.Errorf("case (%d,%d,%d,%d): %s", seed, size, latMode, boundMode, d)
	}
}

func checkRepairMatchesReference(t *testing.T, seed int64, size, latMode, boundMode, deaths uint8) {
	t.Helper()
	c := drawCase(seed, size, latMode, boundMode)
	// Several deaths at once, the root never among them: some adjacent
	// (a dead node inside a subtree another death orphaned), now and
	// then a host that was never in the tree.
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	var dead []int
	for i := 0; i <= int(deaths)%5; i++ {
		v := c.ids[1+r.Intn(len(c.ids)-1)]
		dead = append(dead, v)
		if kids := c.tree.Children(v); len(kids) > 0 && r.Intn(2) == 0 {
			dead = append(dead, kids[r.Intn(len(kids))])
		}
	}
	if r.Intn(4) == 0 {
		dead = append(dead, -7)
	}
	want := c.tree.Clone()
	wantRes, wantErr := refRepair(want, dead, c.lat, c.bound)
	gotRes, gotErr := Repair(c.tree, dead, c.lat, c.bound)
	name := fmt.Sprintf("case (%d,%d,%d,%d,%d) dead %v", seed, size, latMode, boundMode, deaths, dead)
	if gotRes != wantRes {
		t.Errorf("%s: result %+v, reference %+v", name, gotRes, wantRes)
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Errorf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if d := diffTrees(c.tree, want); d != "" {
		t.Errorf("%s: %s", name, d)
	}
}

// craftedCases are inputs (seed, size, latMode, boundMode) on which one
// particular mistake in the view-based code shows and little else does.
var craftedCases = [][4]int64{
	// A height summed in another order (new base + old depth below)
	// differs in its last bit and flips a tie between candidates.
	{1040, 6, 2, 1}, {1077, 21, 2, 0}, {1109, 9, 2, 1}, {1157, 13, 2, 0}, {1173, 7, 2, 3},
	// The highest node is internal and no parent outside its subtree has
	// room: trying one inside it would still send it to the back.
	{1087, 9, 3, 2}, {1145, 1, 1, 2}, {1213, 3, 3, 2}, {1234, 2, 3, 2},
	// Move (a) finds no parent to try, so the first to send the highest
	// node to the back of its siblings is move (b).
	{1000, 10, 2, 1}, {1008, 18, 2, 2}, {1009, 19, 3, 1}, {1021, 9, 3, 2},
}

// FuzzAdjustMatchesReference: Adjust on the view leaves exactly the
// tree — move count, parents, every child list in order — that the
// apply-walk-undo reference leaves.
func FuzzAdjustMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 40; seed++ {
		f.Add(seed, uint8(seed*5), uint8(seed), uint8(seed/4))
	}
	for _, c := range craftedCases {
		f.Add(c[0], uint8(c[1]), uint8(c[2]), uint8(c[3]))
	}
	f.Fuzz(checkAdjustMatchesReference)
}

// FuzzRepairMatchesReference is the same for Repair: result, error and
// tree, after one to ten simultaneous deaths.
func FuzzRepairMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 40; seed++ {
		f.Add(seed, uint8(seed*5), uint8(seed), uint8(seed/4), uint8(seed/20+seed))
	}
	for _, c := range craftedCases {
		f.Add(c[0], uint8(c[1]), uint8(c[2]), uint8(c[3]), uint8(c[0]))
	}
	f.Fuzz(checkRepairMatchesReference)
}

// TestAdjustRepairMatchReferenceSweep runs both comparisons over every
// latency and bound mode at sizes up to the rosters the studies plan.
func TestAdjustRepairMatchReferenceSweep(t *testing.T) {
	for seed := int64(100); seed < 400; seed++ {
		size := uint8(seed * 7)
		if testing.Short() {
			size %= 30
		}
		checkAdjustMatchesReference(t, seed, size, uint8(seed), uint8(seed/4))
		checkRepairMatchesReference(t, seed, size, uint8(seed), uint8(seed/4), uint8(seed/16))
	}
}
