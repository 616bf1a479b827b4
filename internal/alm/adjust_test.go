package alm

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// buildRandomTree makes a random valid tree over nodes 0..n-1 with the
// given degree bound, rooted at 0.
func buildRandomTree(n int, bound int, r *rand.Rand) *Tree {
	t := NewTree(0)
	attached := []int{0}
	for v := 1; v < n; v++ {
		// Pick a parent with free degree.
		for {
			p := attached[r.Intn(len(attached))]
			if t.Degree(p) < bound {
				t.Attach(v, p)
				attached = append(attached, v)
				break
			}
		}
	}
	return t
}

// nodesFingerprint returns the sorted node set plus per-node degrees,
// for invariance checks across swap operations.
func nodesFingerprint(t *Tree) ([]int, map[int]int) {
	nodes := t.Nodes()
	sort.Ints(nodes)
	deg := map[int]int{}
	for _, v := range nodes {
		deg[v] = t.Degree(v)
	}
	return nodes, deg
}

// swapPositions must preserve the node set and per-POSITION degree
// structure (the two swapped nodes exchange degrees), and be an
// involution.
func TestSwapPositionsProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 6 + r.Intn(20)
		tr := buildRandomTree(n, 3, r)
		// Pick two distinct non-root leaves.
		var leaves []int
		for _, v := range tr.Nodes() {
			if v != tr.Root && len(tr.Children(v)) == 0 {
				leaves = append(leaves, v)
			}
		}
		if len(leaves) < 2 {
			return true
		}
		a, b := leaves[0], leaves[1]
		if pa, _ := tr.Parent(a); pa == mustParent(tr, b) {
			return true // same-parent swaps are no-ops by design
		}
		before := tr.Clone()
		nodesBefore, _ := nodesFingerprint(tr)
		tr.swapPositions(a, b)
		if err := tr.Validate(nil); err != nil {
			t.Logf("invalid after swap: %v", err)
			return false
		}
		nodesAfter, _ := nodesFingerprint(tr)
		if len(nodesBefore) != len(nodesAfter) {
			return false
		}
		for i := range nodesBefore {
			if nodesBefore[i] != nodesAfter[i] {
				return false
			}
		}
		// Involution: swapping back restores the original structure.
		tr.swapPositions(a, b)
		for _, v := range tr.Nodes() {
			pb, okb := before.Parent(v)
			pa, oka := tr.Parent(v)
			if okb != oka || pb != pa {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// swapSubtrees must preserve the node set, keep each subtree's internal
// structure, and never create cycles.
func TestSwapSubtreesProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8 + r.Intn(20)
		tr := buildRandomTree(n, 3, r)
		nodes := tr.Nodes()
		// Find two non-root nodes with no ancestor relation.
		var a, b = -1, -1
		for try := 0; try < 50; try++ {
			x := nodes[1+r.Intn(len(nodes)-1)]
			y := nodes[1+r.Intn(len(nodes)-1)]
			if x != y && !tr.isAncestor(x, y) && !tr.isAncestor(y, x) {
				a, b = x, y
				break
			}
		}
		if a == -1 {
			return true
		}
		subA := append([]int(nil), tr.Subtree(a)...)
		nodesBefore, _ := nodesFingerprint(tr)
		tr.swapSubtrees(a, b)
		if err := tr.Validate(nil); err != nil {
			t.Logf("invalid after subtree swap: %v", err)
			return false
		}
		nodesAfter, _ := nodesFingerprint(tr)
		for i := range nodesBefore {
			if nodesBefore[i] != nodesAfter[i] {
				return false
			}
		}
		// a's subtree contents unchanged.
		subA2 := tr.Subtree(a)
		if len(subA) != len(subA2) {
			return false
		}
		sort.Ints(subA)
		sort.Ints(subA2)
		for i := range subA {
			if subA[i] != subA2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Adjust must terminate and preserve validity on arbitrary instances —
// including adversarially tight degree bounds.
func TestAdjustTerminatesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(25)
		lat := randomMetric(n, r)
		latF := func(a, b int) float64 { return lat[a][b] }
		tr := buildRandomTree(n, 2+r.Intn(3), r)
		bound := func(v int) int { return tr.Degree(v) + r.Intn(2) } // tight-ish
		moves := Adjust(tr, latF, bound)
		if moves >= 1000 {
			t.Logf("adjust hit the safety valve")
			return false
		}
		return tr.Validate(nil) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAdjustTinyTrees(t *testing.T) {
	lat := gridLatency
	deg := constDegree(3)
	// Single node.
	t1 := NewTree(0)
	if Adjust(t1, lat, deg) != 0 {
		t.Error("singleton tree should not adjust")
	}
	// Two nodes.
	t2 := NewTree(0)
	t2.Attach(1, 0)
	if Adjust(t2, lat, deg) != 0 {
		t.Error("two-node tree should not adjust")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := NewTree(0)
	tr.Attach(1, 0)
	tr.Attach(2, 1)
	// Corrupt: make a cycle by hand.
	tr.parent[1] = 2
	tr.children[2] = append(tr.children[2], 1)
	if err := tr.Validate(nil); err == nil {
		t.Error("cycle not detected")
	}
	// Dangling parent pointer.
	tr2 := NewTree(0)
	tr2.parent[5] = 99
	if err := tr2.Validate(nil); err == nil {
		t.Error("dangling node not detected")
	}
	// Child list disagreeing with parent pointers.
	tr3 := NewTree(0)
	tr3.Attach(1, 0)
	tr3.children[0] = append(tr3.children[0], 7)
	if err := tr3.Validate(nil); err == nil {
		t.Error("child/parent disagreement not detected")
	}
}

func TestScoringVariants(t *testing.T) {
	// Nearest-parent scoring must still produce a valid tree and use a
	// helper when beneficial.
	members := []int{2, 3, 4, 5, 6}
	degrees := map[int]int{0: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2, 1: 8}
	p := Problem{
		Root:    0,
		Members: members,
		Latency: gridLatency,
		Degree:  func(v int) int { return degrees[v] },
	}
	tr, err := PlanWithHelpers(p, HelperSet{
		Candidates: []int{1}, Radius: 1000, Scoring: ScoreNearestParent,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(p.Degree); err != nil {
		t.Fatal(err)
	}
	if !tr.Contains(1) {
		t.Error("nearest-parent scoring should still recruit the helper")
	}
}
