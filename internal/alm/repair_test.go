package alm

import (
	"math/rand"
	"sort"
	"testing"
)

// reachable returns the node set reachable from the root via children
// lists, sorted.
func reachable(t *Tree) []int {
	out := t.Subtree(t.Root)
	sort.Ints(out)
	return out
}

func TestRepairSingleCrash(t *testing.T) {
	p := Problem{
		Root:    0,
		Members: []int{1, 2, 3, 4, 5, 6, 7},
		Latency: gridLatency,
		Degree:  constDegree(3),
	}
	tr, err := AMCast(p)
	if err != nil {
		t.Fatal(err)
	}
	// Kill an interior node (one that has children).
	var dead int
	for _, v := range tr.Nodes() {
		if v != tr.Root && len(tr.Children(v)) > 0 {
			dead = v
			break
		}
	}
	res, err := Repair(tr, []int{dead}, p.Latency, p.Degree)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 1 {
		t.Errorf("Removed = %d, want 1", res.Removed)
	}
	if err := tr.Validate(p.Degree); err != nil {
		t.Fatalf("repaired tree invalid: %v", err)
	}
	// Every surviving member is reachable again.
	want := []int{0}
	for _, m := range p.Members {
		if m != dead {
			want = append(want, m)
		}
	}
	sort.Ints(want)
	got := reachable(tr)
	if len(got) != len(want) {
		t.Fatalf("reachable = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reachable = %v, want %v", got, want)
		}
	}
}

// TestRepairCascade kills a parent and one of its descendants in the
// same batch: the dead descendant sits inside an orphaned subtree.
func TestRepairCascade(t *testing.T) {
	tr := NewTree(0)
	// 0 -> 1 -> 2 -> 3; 1 -> 4
	for _, e := range [][2]int{{1, 0}, {2, 1}, {3, 2}, {4, 1}} {
		if err := tr.Attach(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	bound := constDegree(3)
	res, err := Repair(tr, []int{1, 2}, gridLatency, bound)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 2 {
		t.Errorf("Removed = %d, want 2", res.Removed)
	}
	if err := tr.Validate(bound); err != nil {
		t.Fatalf("repaired tree invalid: %v", err)
	}
	got := reachable(tr)
	want := []int{0, 3, 4}
	if len(got) != len(want) || got[0] != 0 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("reachable = %v, want %v", got, want)
	}
}

func TestRepairDegreeExhausted(t *testing.T) {
	tr := NewTree(0)
	// 0 -> 1; 1 -> {2, 3}. Root bound 1: it can absorb only one orphan.
	for _, e := range [][2]int{{1, 0}, {2, 1}, {3, 1}} {
		if err := tr.Attach(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	bound := func(v int) int {
		if v == 0 {
			return 1
		}
		return 1 // non-roots: parent link only, no spare child slots
	}
	if _, err := Repair(tr, []int{1}, gridLatency, bound); err == nil {
		t.Fatal("want degree-exhausted error")
	}
}

// TestRepairRandomized: random trees, random crash batches — the repair
// must always restore full membership within degree bounds, and Adjust
// must never leave the tree worse than the naive reattachment.
func TestRepairRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 8 + r.Intn(24)
		members := make([]int, n-1)
		for i := range members {
			members[i] = i + 1
		}
		p := Problem{Root: 0, Members: members, Latency: gridLatency, Degree: constDegree(4)}
		tr, err := AMCast(p)
		if err != nil {
			t.Fatal(err)
		}
		// Kill 1..3 random non-root nodes.
		kill := map[int]bool{}
		for len(kill) < 1+r.Intn(3) {
			kill[1+r.Intn(n-1)] = true
		}
		var dead []int
		for v := range kill {
			dead = append(dead, v)
		}
		sort.Ints(dead)
		if _, err := Repair(tr, dead, p.Latency, p.Degree); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := tr.Validate(p.Degree); err != nil {
			t.Fatalf("trial %d: invalid tree: %v", trial, err)
		}
		if got, want := len(reachable(tr)), n-len(dead); got != want {
			t.Fatalf("trial %d: reachable %d, want %d", trial, got, want)
		}
	}
}
