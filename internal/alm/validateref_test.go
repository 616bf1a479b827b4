package alm

// Tree.Validate as it was before it read each map once in its own
// order: every rule a walk over the nodes in sorted order, the first
// defect met returned. The body is kept verbatim, as refValidate, as the
// model the differential and fuzz tests below hold Validate to — the
// same error text on every tree, because that text feeds invariant-audit
// violation details, which must be reproducible across runs.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refValidate is Validate as it was: sorted walks, first defect wins.
func refValidate(t *Tree, bound DegreeFunc) error {
	withParent := make([]int, 0, len(t.parent))
	for v := range t.parent {
		withParent = append(withParent, v)
	}
	sort.Ints(withParent)
	for _, v := range withParent {
		if v == t.Root {
			return fmt.Errorf("alm: root has a parent")
		}
		// Walk up with a step bound to catch cycles.
		cur := v
		for steps := 0; ; steps++ {
			if cur == t.Root {
				break
			}
			p, ok := t.parent[cur]
			if !ok {
				return fmt.Errorf("alm: node %d dangling (no path to root from %d)", cur, v)
			}
			cur = p
			if steps > len(t.parent)+1 {
				return fmt.Errorf("alm: cycle detected from node %d", v)
			}
		}
	}
	parents := make([]int, 0, len(t.children))
	for p := range t.children {
		parents = append(parents, p)
	}
	sort.Ints(parents)
	for _, p := range parents {
		for _, c := range t.children[p] {
			if got, ok := t.parent[c]; !ok || got != p {
				return fmt.Errorf("alm: child list of %d contains %d but parent pointer disagrees", p, c)
			}
		}
	}
	if bound != nil {
		for _, v := range t.Nodes() {
			if d := t.Degree(v); d > bound(v) {
				return fmt.Errorf("alm: node %d degree %d exceeds bound %d", v, d, bound(v))
			}
		}
	}
	return nil
}

// checkValidateMatchesReference builds a random tree of up to 40 nodes,
// corrupts it by hand up to cuts times — a parent pointer moved (to a
// node in the tree, off it, or onto the root, which makes dangling
// chains, cycles and disagreeing child lists), deleted or given to the
// root, a stray child listed — and compares Validate's error with the
// reference's, with no bound and with random bounds tight enough to
// break.
func checkValidateMatchesReference(t *testing.T, seed int64, size, cuts uint8) {
	r := rand.New(rand.NewSource(seed))
	n := 1 + int(size)%40
	tr := NewTree(r.Intn(4 * n)) // not always the smallest node
	nodes := []int{tr.Root}
	for len(nodes) < n {
		v := r.Intn(4 * n)
		if tr.Contains(v) {
			continue
		}
		if err := tr.Attach(v, nodes[r.Intn(len(nodes))]); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, v)
	}
	pick := func() int {
		if r.Intn(5) == 0 {
			return r.Intn(6 * n) // possibly off the tree
		}
		return nodes[r.Intn(len(nodes))]
	}
	for k := 0; k < int(cuts)%5; k++ {
		switch v := pick(); r.Intn(4) {
		case 0:
			tr.parent[v] = pick()
		case 1:
			delete(tr.parent, v)
		case 2:
			tr.parent[tr.Root] = v
		case 3:
			tr.children[v] = append(tr.children[v], pick())
		}
	}
	bounds := make(map[int]int)
	bound := func(v int) int {
		if b, ok := bounds[v]; ok {
			return b
		}
		bounds[v] = r.Intn(4)
		return bounds[v]
	}
	for _, b := range []DegreeFunc{nil, bound} {
		got, want := tr.Validate(b), refValidate(tr, b)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d size %d cuts %d bound %t: Validate = %v, reference = %v", seed, size, cuts, b != nil, got, want)
		}
	}
}

// FuzzValidateMatchesReference: Validate reports exactly the defect the
// sorted walk reports first, or none when it finds none.
func FuzzValidateMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 40; seed++ {
		f.Add(seed, uint8(seed*5), uint8(seed))
	}
	f.Fuzz(checkValidateMatchesReference)
}

// TestValidateMatchesReferenceSweep runs the comparison over many seeds
// at every corruption count, sound trees included.
func TestValidateMatchesReferenceSweep(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		checkValidateMatchesReference(t, seed, uint8(seed*7), uint8(seed))
	}
}
