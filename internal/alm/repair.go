package alm

import (
	"fmt"
	"math"
	"sort"
)

// RepairResult reports what a Repair did.
type RepairResult struct {
	// Removed is the number of dead nodes actually deleted.
	Removed int
	// Reattached is the number of orphaned subtrees given new parents.
	Reattached int
	// AdjustMoves is the number of height-improvement moves applied
	// after reattachment.
	AdjustMoves int
}

// Repair removes the dead nodes from t and reattaches every orphaned
// subtree under the surviving parent that keeps the maximum height
// lowest, then runs Adjust to re-bound the height. Latency lat is the
// planner's view; bound supplies degree limits.
//
// Repair fails if the root died (the session has no source left) or if
// the survivors' spare degree cannot absorb an orphan; in either case
// the caller should fall back to a full replan. On the degree-exhausted
// error the tree is left partially repaired but structurally valid over
// its reachable portion.
func Repair(t *Tree, dead []int, lat LatencyFunc, bound DegreeFunc) (RepairResult, error) {
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
	size := make(map[int]int, len(live))
	for _, o := range live {
		size[o] = len(t.Subtree(o))
	}
	sort.Slice(live, func(i, j int) bool {
		if si, sj := size[live[i]], size[live[j]]; si != sj {
			return si > sj
		}
		return live[i] < live[j]
	})

	// Candidate parents are tried in ascending order, and only those
	// reachable from the root via children lists (what a layout holds) —
	// descendants of still-detached subtrees must not adopt anyone yet.
	// The orphan's subtree is laid out after the tree and judged under
	// each candidate: nothing else changes height.
	v := viewPool.Get().(*view)
	defer v.release()
	ids := append(t.Nodes(), live...)
	sort.Ints(ids)
	v.candidates(ids)
	for _, o := range live {
		v.layout(t, lat)
		_, cur := v.highest()
		s := v.place(t, lat, o, -1)
		bestW, bestMax := -1, math.Inf(1)
		for _, w := range v.order {
			if bound != nil && v.degree(w) >= bound(v.at[w].id) {
				continue
			}
			if m := v.under(s, w, lat, cur); m < bestMax {
				bestMax, bestW = m, v.at[w].id
			}
		}
		if bestW == -1 {
			return res, fmt.Errorf("alm: no spare degree to reattach subtree at %d", o)
		}
		t.parent[o] = bestW
		t.children[bestW] = append(t.children[bestW], o)
		res.Reattached++
	}

	res.AdjustMoves = adjust(t, v, lat, bound)
	return res, nil
}
