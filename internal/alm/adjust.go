package alm

// Adjust applies the paper's tree-improvement moves (footnote 2) until
// none of them lowers the maximum height, mutating t in place:
//
//	(a) find a new parent for the highest node;
//	(b) swap the highest node with another leaf node;
//	(c) swap the subtree rooted at the highest node's parent with
//	    another subtree.
//
// Latency lat is the planner's view; bound supplies degree limits.
// It returns the number of moves applied.
func Adjust(t *Tree, lat LatencyFunc, bound DegreeFunc) int {
	const maxMoves = 1000 // safety valve; convergence is monotone
	hsc := newHeightScratch(t)
	moves := 0
	for moves < maxMoves {
		if !adjustOnce(t, lat, bound, hsc) {
			break
		}
		moves++
	}
	return moves
}

// adjustOnce tries moves (a), (b), (c) in order on the current highest
// node and applies the first that strictly lowers max height.
func adjustOnce(t *Tree, lat LatencyFunc, bound DegreeFunc, hsc *heightScratch) bool {
	if t.Size() < 3 {
		return false
	}
	cur := hsc.maxHeight(t, lat)
	x := hsc.highestNode(t, lat)
	if x == t.Root {
		return false
	}
	if moveReparent(t, x, cur, lat, bound, hsc) {
		return true
	}
	if moveSwapLeaf(t, x, cur, lat, hsc) {
		return true
	}
	if moveSwapSubtree(t, x, cur, lat, hsc) {
		return true
	}
	return false
}

// moveReparent (a): attach the highest node under the parent that
// minimizes the resulting max height, if strictly better.
func moveReparent(t *Tree, x int, cur float64, lat LatencyFunc, bound DegreeFunc, hsc *heightScratch) bool {
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

// moveSwapLeaf (b): exchange the highest node's position with another
// leaf, if strictly better. (The highest node is always a leaf since
// latencies are positive.)
func moveSwapLeaf(t *Tree, x int, cur float64, lat LatencyFunc, hsc *heightScratch) bool {
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

// moveSwapSubtree (c): exchange the subtree rooted at the highest
// node's parent with another subtree, if strictly better.
func moveSwapSubtree(t *Tree, x int, cur float64, lat LatencyFunc, hsc *heightScratch) bool {
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

// swapSubtrees exchanges the parents of two subtree roots (each keeps
// its own descendants). Callers guarantee neither is an ancestor of the
// other and neither is the root.
func (t *Tree) swapSubtrees(a, b int) {
	pa, pb := t.parent[a], t.parent[b]
	t.children[pa] = removeOne(t.children[pa], a)
	t.children[pb] = removeOne(t.children[pb], b)
	t.parent[a], t.parent[b] = pb, pa
	t.children[pb] = append(t.children[pb], a)
	t.children[pa] = append(t.children[pa], b)
}

func mustParent(t *Tree, v int) int {
	p, _ := t.Parent(v)
	return p
}
