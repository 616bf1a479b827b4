package topology

import (
	"math"
	"math/rand"
	"testing"
)

// This file keeps Dijkstra as it ran on the generic 4-ary heap the
// frontier replaced: refHeap is that heap (less the methods Dijkstra
// never called) and refDijkstra the function, both verbatim but for
// their names. TestDijkstraMatchesReference requires every distance
// row to match it bit for bit.

type refHeap[T any] struct {
	less func(a, b T) bool
	s    []T
}

func newRefHeap[T any](less func(a, b T) bool) *refHeap[T] {
	return &refHeap[T]{less: less}
}

func (h *refHeap[T]) Len() int { return len(h.s) }

func (h *refHeap[T]) Grow(n int) {
	if cap(h.s)-len(h.s) < n {
		s := make([]T, len(h.s), len(h.s)+n)
		copy(s, h.s)
		h.s = s
	}
}

func (h *refHeap[T]) Push(x T) {
	h.s = append(h.s, x)
	h.up(len(h.s) - 1)
}

func (h *refHeap[T]) Pop() T {
	s := h.s
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	var zero T
	s[last] = zero
	h.s = s[:last]
	if last > 1 {
		h.down(0)
	}
	return top
}

func (h *refHeap[T]) up(i int) {
	s := h.s
	for i > 0 {
		p := (i - 1) >> 2
		if !h.less(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *refHeap[T]) down(i int) {
	s := h.s
	n := len(s)
	for {
		first := i<<2 + 1
		if first >= n {
			return
		}
		// Find the smallest of the up-to-4 children.
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(s[c], s[min]) {
				min = c
			}
		}
		if !h.less(s[min], s[i]) {
			return
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
}

func (n *Network) refDijkstra(src int) []float64 {
	const inf = 1e18
	dist := make([]float64, n.routers)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	q := newRefHeap(pqLess)
	q.Grow(64)
	q.Push(pqItem{node: src, dist: 0})
	for q.Len() > 0 {
		it := q.Pop()
		if it.dist > dist[it.node] {
			continue
		}
		for _, e := range n.adj[it.node] {
			if d := it.dist + e.lat; d < dist[e.to] {
				dist[e.to] = d
				q.Push(pqItem{node: e.to, dist: d})
			}
		}
	}
	return dist
}

// tiedGrid is a w×h router grid whose edge latencies (0.1, 0.2, 0.3,
// 0.7) make many paths equal in length over the reals and different in
// floating point, depending on the order they are summed in.
func tiedGrid(w, h int) *Network {
	n := &Network{routers: w * h, adj: make([][]edge, w*h)}
	lats := []float64{0.1, 0.2, 0.3, 0.7}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := y*w + x
			if x+1 < w {
				n.addEdge(r, r+1, lats[(x+2*y)%4])
			}
			if y+1 < h {
				n.addEdge(r, r+w, lats[(3*x+y)%4])
			}
		}
	}
	return n
}

// TestDijkstraMatchesReference: every row of the all-pairs table, on
// generated transit-stub graphs at two sizes and on a crafted graph
// full of ties, is bit-identical to the generic heap's, and the
// frontier alone pops the same items in the same order as that heap
// under heavy ties.
func TestDijkstraMatchesReference(t *testing.T) {
	small, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	paper, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*Network{"small": small, "paper": paper, "tied-grid": tiedGrid(23, 17)} {
		for src := 0; src < n.routers; src++ {
			got, want := n.dijkstra(src), n.refDijkstra(src)
			for r := range want {
				if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
					t.Fatalf("%s: dist[%d][%d] = %v, reference %v", name, src, r, got[r], want[r])
				}
			}
		}
	}

	r := rand.New(rand.NewSource(29))
	var q frontier
	ref := newRefHeap(pqLess)
	node := 0
	for step := 0; step < 20000; step++ {
		if len(q) != ref.Len() {
			t.Fatalf("step %d: len %d, reference %d", step, len(q), ref.Len())
		}
		if len(q) > 0 && r.Intn(5) < 2 {
			if got, want := q.pop(), ref.Pop(); got != want {
				t.Fatalf("step %d: pop %+v, reference %+v", step, got, want)
			}
			continue
		}
		node++
		it := pqItem{node: node, dist: float64(r.Intn(8))} // distinct nodes, eight distances
		q.push(it)
		ref.Push(it)
	}
}
