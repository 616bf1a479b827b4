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
// It returns the number of moves applied. Every node of t must be
// reachable from its root.
//
// The result is a function of the tree that went in, down to the order
// of every child list — the data plane forwards in that order. The
// highest node is the lowest id among equals, candidates are tried in
// Tree.Nodes order, and one replaces the best so far only if strictly
// lower. Candidates are judged on a flat view of the tree (view.go),
// not applied; but each one tried sends the nodes it would move to the
// back of their parents' child lists, whether or not a move follows —
// the trace that applying and undoing it on the tree used to leave,
// which the differential tests in adjustref_test.go pin.
func Adjust(t *Tree, lat LatencyFunc, bound DegreeFunc) int {
	v := viewPool.Get().(*view)
	defer v.release()
	return adjust(t, v, lat, bound)
}

// adjust is Adjust on a view the caller owns.
func adjust(t *Tree, v *view, lat LatencyFunc, bound DegreeFunc) int {
	const maxMoves = 1000 // safety valve; convergence is monotone
	if t.Size() < 3 {
		return 0
	}
	v.candidates(t.Nodes())
	moves := 0
	for moves < maxMoves && adjustOnce(t, v, lat, bound) {
		moves++
	}
	return moves
}

// adjustOnce tries moves (a), (b), (c) in order on the current highest
// node and applies the first that strictly lowers max height.
func adjustOnce(t *Tree, v *view, lat LatencyFunc, bound DegreeFunc) bool {
	v.layout(t, lat)
	x, cur := v.highest()
	if x == 0 {
		return false
	}
	return moveReparent(t, v, x, cur, lat, bound) ||
		moveSwapLeaf(t, v, x, cur, lat) ||
		moveSwapSubtree(t, v, x, cur, lat)
}

// moveReparent (a): attach the highest node, at position x, under the
// parent that minimizes the resulting max height, if strictly better.
func moveReparent(t *Tree, v *view, x int, cur float64, lat LatencyFunc, bound DegreeFunc) bool {
	at, old := v.at, v.at[x].parent
	v.mask(x)
	rest := v.outside(x)
	best, bestMax := -1, cur
	for _, w := range v.order {
		if w == old || v.within(x, w) {
			continue
		}
		if bound != nil && v.degree(w) >= bound(at[w].id) {
			continue
		}
		if m := v.under(x, w, lat, rest); m < bestMax {
			bestMax, best = m, w
		}
		v.toBack(x)
	}
	if best == -1 {
		return false
	}
	t.reattach(at[x].id, at[best].id)
	return true
}

// moveSwapLeaf (b): exchange the highest node's position with another
// leaf, if strictly better. (The highest node is a leaf unless a
// zero-latency edge below it ties a descendant with a higher id.)
func moveSwapLeaf(t *Tree, v *view, x int, cur float64, lat LatencyFunc) bool {
	at, px := v.at, v.at[x].parent
	if len(at[x].kids) > 0 {
		return false
	}
	v.mask(x)
	best, bestMax := -1, cur
	for _, y := range v.order {
		// Leaves only (the root of three nodes or more is none), and not
		// under the same parent: that swap is a no-op, as is y == x.
		if len(at[y].kids) > 0 || at[y].parent == px {
			continue
		}
		m := v.under(x, at[y].parent, lat, v.outside(y))
		if m = v.under(y, px, lat, m); m < bestMax {
			bestMax, best = m, y
		}
		v.toBack(y)
		v.toBack(x)
	}
	if best == -1 {
		return false
	}
	t.swapPositions(at[x].id, at[best].id)
	return true
}

// moveSwapSubtree (c): exchange the subtree rooted at the highest
// node's parent with another subtree, if strictly better.
func moveSwapSubtree(t *Tree, v *view, x int, cur float64, lat LatencyFunc) bool {
	at, px := v.at, v.at[x].parent
	if px == 0 {
		return false
	}
	v.mask(px)
	best, bestMax := -1, cur
	for _, q := range v.order {
		// The two subtree roots must be position-swappable: neither an
		// ancestor of the other, which rules out px itself and the root.
		if v.within(px, q) || v.within(q, px) {
			continue
		}
		m := v.under(px, at[q].parent, lat, v.outside(q))
		if m = v.under(q, at[px].parent, lat, m); m < bestMax {
			bestMax, best = m, q
		}
		v.toBack(px)
		v.toBack(q)
	}
	if best == -1 {
		return false
	}
	t.swapSubtrees(at[px].id, at[best].id)
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
