// Package alm implements the paper's application-level multicast
// planning (Section 5): the degree-bounded minimum-height tree (DB-MHT)
// problem, the AMCast greedy heuristic it starts from, the "adjust"
// tree-improvement moves, and the critical-node algorithm that recruits
// helper nodes from the resource pool.
//
// Node identity is an int handle (a host index); all latency knowledge
// enters through functions, so the same planner runs against the true
// topology oracle ("Critical") or against coordinate-predicted
// latencies ("Leafset").
package alm

import (
	"fmt"
	"sort"
)

// LatencyFunc returns the (planning) latency between two nodes in ms.
type LatencyFunc func(a, b int) float64

// DegreeFunc returns the degree bound of a node: the maximum number of
// simultaneous connections (parent link + children) it can carry.
type DegreeFunc func(v int) int

// Problem is one DB-MHT instance: build a spanning tree over
// {Root} ∪ Members rooted at Root, minimizing the maximum
// root-to-member latency subject to per-node degree bounds.
type Problem struct {
	Root    int
	Members []int // excluding Root
	Latency LatencyFunc
	Degree  DegreeFunc
}

// Validate checks the problem is well-formed.
func (p Problem) Validate() error {
	if p.Latency == nil || p.Degree == nil {
		return fmt.Errorf("alm: Latency and Degree are required")
	}
	seen := map[int]bool{p.Root: true}
	for _, m := range p.Members {
		if seen[m] {
			return fmt.Errorf("alm: duplicate member %d", m)
		}
		seen[m] = true
	}
	if p.Degree(p.Root) < 1 {
		return fmt.Errorf("alm: root degree bound %d < 1", p.Degree(p.Root))
	}
	for _, m := range p.Members {
		if p.Degree(m) < 1 {
			return fmt.Errorf("alm: member %d degree bound %d < 1", m, p.Degree(m))
		}
	}
	return nil
}

// Tree is a rooted multicast tree. It stores structure only; heights
// are computed against a caller-supplied latency function, so the same
// tree can be judged by the planner's beliefs and by the true topology.
type Tree struct {
	Root     int
	parent   map[int]int
	children map[int][]int
}

// NewTree creates a tree containing only the root.
func NewTree(root int) *Tree {
	return &Tree{
		Root:     root,
		parent:   make(map[int]int),
		children: make(map[int][]int),
	}
}

// Attach adds node v as a child of p. p must already be in the tree and
// v must not be.
func (t *Tree) Attach(v, p int) error {
	if !t.Contains(p) {
		return fmt.Errorf("alm: parent %d not in tree", p)
	}
	if t.Contains(v) {
		return fmt.Errorf("alm: node %d already in tree", v)
	}
	t.parent[v] = p
	t.children[p] = append(t.children[p], v)
	return nil
}

// Contains reports whether v is in the tree.
func (t *Tree) Contains(v int) bool {
	if v == t.Root {
		return true
	}
	_, ok := t.parent[v]
	return ok
}

// Parent returns v's parent; the root (and unknown nodes) report
// themselves with ok=false.
func (t *Tree) Parent(v int) (int, bool) {
	p, ok := t.parent[v]
	return p, ok
}

// Children returns v's children (the live slice; callers must not
// modify it).
func (t *Tree) Children(v int) []int { return t.children[v] }

// Degree returns the connection count of v inside the tree: children
// plus the parent link for non-roots.
func (t *Tree) Degree(v int) int {
	d := len(t.children[v])
	if v != t.Root {
		if _, ok := t.parent[v]; ok {
			d++
		}
	}
	return d
}

// Size returns the number of nodes in the tree (including the root).
func (t *Tree) Size() int { return len(t.parent) + 1 }

// Nodes returns all nodes, root first, then the rest in ascending
// order (deterministic for tests and reports).
func (t *Tree) Nodes() []int {
	out := make([]int, 0, t.Size())
	out = append(out, t.Root)
	rest := make([]int, 0, len(t.parent))
	for v := range t.parent {
		rest = append(rest, v)
	}
	sort.Ints(rest)
	return append(out, rest...)
}

// EachNode calls yield with every node — the root first, then the rest
// in no particular order — until yield returns false. It reads the tree
// in place; Nodes is the sorted copy.
func (t *Tree) EachNode(yield func(v int) bool) {
	if !yield(t.Root) {
		return
	}
	for v := range t.parent {
		if !yield(v) {
			return
		}
	}
}

// Heights computes every node's aggregated latency from the root under
// lat.
func (t *Tree) Heights(lat LatencyFunc) map[int]float64 {
	h := make(map[int]float64, t.Size())
	h[t.Root] = 0
	// BFS from the root; children lists make this linear.
	queue := []int{t.Root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, c := range t.children[v] {
			h[c] = h[v] + lat(v, c)
			queue = append(queue, c)
		}
	}
	return h
}

// MaxHeight returns the largest root-to-node latency under lat — the
// DB-MHT objective.
func (t *Tree) MaxHeight(lat LatencyFunc) float64 {
	max := 0.0
	for _, h := range t.Heights(lat) {
		if h > max {
			max = h
		}
	}
	return max
}

// Clone deep-copies the tree.
func (t *Tree) Clone() *Tree {
	c := NewTree(t.Root)
	for v, p := range t.parent {
		c.parent[v] = p
	}
	for v, ch := range t.children {
		c.children[v] = append([]int(nil), ch...)
	}
	return c
}

// Subtree returns all nodes in v's subtree including v.
func (t *Tree) Subtree(v int) []int {
	out := []int{v}
	for i := 0; i < len(out); i++ {
		out = append(out, t.children[out[i]]...)
	}
	return out
}

// reattach moves node v (and its subtree) under a new parent np.
func (t *Tree) reattach(v, np int) {
	old := t.parent[v]
	t.children[old] = removeOne(t.children[old], v)
	t.parent[v] = np
	t.children[np] = append(t.children[np], v)
}

// swapPositions exchanges the tree positions of two nodes, leaving
// their subtrees attached to their (new) positions. Only valid for
// non-root nodes that are not in an ancestor relation.
func (t *Tree) swapPositions(a, b int) {
	pa, pb := t.parent[a], t.parent[b]
	ca := append([]int(nil), t.children[a]...)
	cb := append([]int(nil), t.children[b]...)
	// Detach both.
	t.children[pa] = removeOne(t.children[pa], a)
	t.children[pb] = removeOne(t.children[pb], b)
	// Exchange parents.
	t.parent[a], t.parent[b] = pb, pa
	t.children[pb] = append(t.children[pb], a)
	t.children[pa] = append(t.children[pa], b)
	// Exchange child sets (the position keeps its subtree).
	t.children[a], t.children[b] = cb, ca
	for _, c := range cb {
		t.parent[c] = a
	}
	for _, c := range ca {
		t.parent[c] = b
	}
}

func removeOne(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Validate checks structural integrity: every non-root node has a
// parent chain reaching the root without cycles, children lists match
// parent pointers, and every node's degree respects bound. It reads
// each map once, in its own order, allocating nothing, and keeps the
// smallest offending node of each rule; the rules then report in that
// order, so a tree with several defects always reports the one a walk
// in sorted order meets first — the error string feeds invariant-audit
// violation details, which must be reproducible across runs.
func (t *Tree) Validate(bound DegreeFunc) error {
	// Rule 1, the parent chains: the smallest node with a parent whose
	// chain fails, where it stops, and how (the root itself having a
	// parent is neither dangling nor a cycle).
	chain, chainAt, dangling, cycle, chainBad := 0, 0, false, false, false
	// Rule 2, the child lists: the smallest parent whose list holds a
	// child that disagrees, and the first such child in its list.
	list, listChild, listBad := 0, 0, false
	// Rule 3, the bound: the root if it is over, else the smallest node
	// over, with its degree and bound.
	over, overDeg, overBound, overBad, rootOver := 0, 0, 0, false, false
	if bound != nil {
		if d, b := t.Degree(t.Root), bound(t.Root); d > b {
			over, overDeg, overBound, overBad, rootOver = t.Root, d, b, true, true
		}
	}
	for v := range t.parent {
		if !chainBad || v < chain {
			if v == t.Root {
				chain, dangling, cycle, chainBad = v, false, false, true
			} else if at, d, c := t.climb(v); d || c {
				chain, chainAt, dangling, cycle, chainBad = v, at, d, c, true
			}
		}
		if bound != nil && !rootOver && v != t.Root && (!overBad || v < over) {
			if d, b := t.Degree(v), bound(v); d > b {
				over, overDeg, overBound, overBad = v, d, b, true
			}
		}
	}
	for p, cs := range t.children {
		if listBad && p > list {
			continue
		}
		for _, c := range cs {
			if got, ok := t.parent[c]; !ok || got != p {
				list, listChild, listBad = p, c, true
				break
			}
		}
	}
	switch {
	case chainBad && chain == t.Root:
		return fmt.Errorf("alm: root has a parent")
	case chainBad && dangling:
		return fmt.Errorf("alm: node %d dangling (no path to root from %d)", chainAt, chain)
	case chainBad && cycle:
		return fmt.Errorf("alm: cycle detected from node %d", chain)
	case listBad:
		return fmt.Errorf("alm: child list of %d contains %d but parent pointer disagrees", list, listChild)
	case overBad:
		return fmt.Errorf("alm: node %d degree %d exceeds bound %d", over, overDeg, overBound)
	}
	return nil
}

// climb walks up from v with a step bound. It stops at the root, at a
// node with no parent (dangling, at that node), or once the walk has
// outrun the tree (a cycle).
func (t *Tree) climb(v int) (at int, dangling, cycle bool) {
	cur := v
	for steps := 0; ; steps++ {
		if cur == t.Root {
			return cur, false, false
		}
		p, ok := t.parent[cur]
		if !ok {
			return cur, true, false
		}
		cur = p
		if steps > len(t.parent)+1 {
			return cur, false, true
		}
	}
}

// Improvement returns the paper's headline metric:
// (H_base - H_alg) / H_base.
func Improvement(base, alg float64) float64 {
	if base <= 0 {
		return 0
	}
	return (base - alg) / base
}

// BoundImprovement returns the theoretical upper bound on improvement
// for a problem: the height of an infinite-degree-root star (the
// latency from the root to its furthest member) against the base
// height.
func BoundImprovement(p Problem, baseHeight float64) float64 {
	star := 0.0
	for _, m := range p.Members {
		if l := p.Latency(p.Root, m); l > star {
			star = l
		}
	}
	return Improvement(baseHeight, star)
}
