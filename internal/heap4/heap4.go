// Package heap4 is a generic 4-ary min-heap. It exists because
// container/heap costs an allocation per Push and per Pop: its
// interface{} arguments box every element on the heap's hottest paths.
// Its one user is the Dijkstra frontier of all-pairs topology
// construction (internal/topology). A generic heap keeps elements
// unboxed (zero allocations per Push/Pop once the backing array has
// grown) and the 4-ary layout halves tree depth versus a binary heap,
// trading slightly wider sift-down comparisons for markedly fewer
// cache-missing levels. The simulator's event queue is not this heap:
// internal/eventsim owns a concrete one, because ordering through the
// less field below costs an indirect call and two element copies per
// comparison, which the frontier (1% of a ring's set-up) can afford and
// the event loop cannot.
package heap4

// Heap is a 4-ary min-heap ordered by the less function. The zero
// value is not usable; construct with New. Not safe for concurrent use.
type Heap[T any] struct {
	less func(a, b T) bool
	s    []T
}

// New returns an empty heap ordered by less (strict weak ordering).
func New[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return len(h.s) }

// Peek returns the minimum element without removing it. It must not be
// called on an empty heap.
func (h *Heap[T]) Peek() T { return h.s[0] }

// Clear empties the heap, keeping the backing array for reuse.
func (h *Heap[T]) Clear() {
	var zero T
	for i := range h.s {
		h.s[i] = zero // release references held by pointer-carrying elements
	}
	h.s = h.s[:0]
}

// Grow ensures capacity for at least n additional elements.
func (h *Heap[T]) Grow(n int) {
	if cap(h.s)-len(h.s) < n {
		s := make([]T, len(h.s), len(h.s)+n)
		copy(s, h.s)
		h.s = s
	}
}

// Push adds x. Amortized O(1) allocation-free once the backing array
// has reached its steady-state size.
func (h *Heap[T]) Push(x T) {
	h.s = append(h.s, x)
	h.up(len(h.s) - 1)
}

// Pop removes and returns the minimum element. It must not be called on
// an empty heap.
func (h *Heap[T]) Pop() T {
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

func (h *Heap[T]) up(i int) {
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

func (h *Heap[T]) down(i int) {
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
