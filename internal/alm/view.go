package alm

import (
	"slices"
	"sync"
)

// view is a tree laid out flat so that Adjust and Repair can judge a
// candidate move without applying it. The nodes reachable from the
// root sit in preorder: the subtree of the node at position i is the
// range [i, at[i].end), "a is an ancestor of b" is a range test, and
// each node carries what judging needs — its parent's position, the
// latency of the edge from its parent, its height, its child list.
//
// Moving a subtree changes the heights inside it and no others, so a
// candidate's maximum height is the largest height outside the moved
// subtrees (mask, outside) joined with the heights inside them
// re-accumulated from the new parent's unchanged height (under).
// Every height, cached or re-accumulated, is h[parent] + lat(parent,
// child) summed root-down as Tree.Heights sums it: a shortcut such as
// new base + old depth below reassociates the additions, and a last
// bit of difference flips a tie between candidates and with it the
// tree.
//
// A view describes the tree as layout found it. It survives toBack,
// which reorders siblings; any other change to the tree needs a new
// layout. Views are recycled through viewPool.
type view struct {
	at []spot
	// Candidates: rank is each node's place in the order the caller
	// wants candidates tried in (set once per node set, by candidates),
	// order the positions of the laid-out nodes in that order.
	rank   map[int]int
	byRank []int // scratch: position by rank, -1 when not laid out
	order  []int
}

// spot is one node of a view.
type spot struct {
	id     int     // the node
	parent int     // position of its parent; -1 at the top of a layout
	end    int     // one past the last position of its subtree
	kids   []int   // its child list: the tree's own slice, not a copy
	edge   float64 // lat(parent, id)
	h      float64 // height
	alt    float64 // scratch: height in the candidate under judgement
	// The largest unmasked height at the positions before and after
	// this one (see mask).
	before, after float64
}

var viewPool = sync.Pool{New: func() any { return new(view) }}

// release hands v back to viewPool without its references into the tree.
func (v *view) release() {
	clear(v.at)
	viewPool.Put(v)
}

// candidates fixes the order layouts list candidates in: ids names
// every node a layout may reach, in that order.
func (v *view) candidates(ids []int) {
	if v.rank == nil {
		v.rank = make(map[int]int, len(ids))
	}
	clear(v.rank)
	for r, id := range ids {
		v.rank[id] = r
	}
	v.byRank = resize(v.byRank, len(ids))
}

// layout replaces the view's contents with t as reachable from its
// root, which lands at position 0.
func (v *view) layout(t *Tree, lat LatencyFunc) {
	v.at = v.at[:0]
	v.place(t, lat, t.Root, -1)
	for r := range v.byRank {
		v.byRank[r] = -1
	}
	for i := range v.at {
		v.byRank[v.rank[v.at[i].id]] = i
	}
	v.order = v.order[:0]
	for _, i := range v.byRank {
		if i >= 0 {
			v.order = append(v.order, i)
		}
	}
}

// place appends the subtree rooted at node n, hanging under the node at
// position p, and returns n's position. With p < 0 the subtree is laid
// out detached — structure and edge latencies only — for under to try
// under parents in the tree.
func (v *view) place(t *Tree, lat LatencyFunc, n, p int) int {
	i := len(v.at)
	kids := t.children[n]
	s := spot{id: n, parent: p, kids: kids}
	if p >= 0 {
		s.edge = lat(v.at[p].id, n)
		s.h = v.at[p].h + s.edge
	}
	v.at = append(v.at, s)
	for _, c := range kids {
		v.place(t, lat, c, i)
	}
	v.at[i].end = len(v.at)
	return i
}

// highest returns the position of the highest node — the lowest id
// among equals — and its height, the tree's maximum.
func (v *view) highest() (int, float64) {
	at, best := v.at, 0
	for i := range at {
		if b := &at[best]; at[i].h > b.h || (at[i].h == b.h && at[i].id < b.id) {
			best = i
		}
	}
	return best, at[best].h
}

// degree is Tree.Degree of the node at position w.
func (v *view) degree(w int) int {
	if v.at[w].parent < 0 {
		return len(v.at[w].kids)
	}
	return len(v.at[w].kids) + 1
}

// toBack moves the node at position i to the end of its parent's child
// list — in the tree itself, whose lists the view aliases. Adjust uses
// it to leave child order as trying a candidate on the tree would.
func (v *view) toBack(i int) {
	id, s := v.at[i].id, v.at[v.at[i].parent].kids
	j := slices.Index(s, id)
	copy(s[j:], s[j+1:])
	s[len(s)-1] = id
}

// within reports whether position b lies in the subtree at position a.
func (v *view) within(a, b int) bool { return a <= b && b < v.at[a].end }

// mask prepares outside for candidates that all move subtree m: its
// heights are left out of before/after.
func (v *view) mask(m int) {
	at, lo, hi := v.at, m, v.at[m].end
	top := 0.0
	for i := range at {
		at[i].before = top
		if (i < lo || i >= hi) && at[i].h > top {
			top = at[i].h
		}
	}
	top = 0.0
	for i := len(at) - 1; i >= 0; i-- {
		at[i].after = top
		if (i < lo || i >= hi) && at[i].h > top {
			top = at[i].h
		}
	}
}

// outside returns the largest height outside both the masked subtree
// and subtree s (which may be the masked one).
func (v *view) outside(s int) float64 {
	return max(v.at[s].before, v.at[v.at[s].end-1].after)
}

// under returns the larger of m and the heights subtree s would have
// hanging under the node at position p. p must lie outside every
// subtree the candidate moves, so that its own height stands.
func (v *view) under(s, p int, lat LatencyFunc, m float64) float64 {
	at := v.at
	at[s].alt = at[p].h + lat(at[p].id, at[s].id)
	if at[s].alt > m {
		m = at[s].alt
	}
	for i := s + 1; i < at[s].end; i++ {
		at[i].alt = at[at[i].parent].alt + at[i].edge
		if at[i].alt > m {
			m = at[i].alt
		}
	}
	return m
}
