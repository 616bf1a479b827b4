package eventsim

// before is the engine's total order: earlier time first, scheduling
// order (FIFO) among events at the same instant. It takes pointers and
// is small enough to inline, so a sift compares two words in place
// instead of copying two events through a function value.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// queue is a 4-ary min-heap of events ordered by before. The 4-ary
// layout halves the depth of a binary heap — fewer cache-missing levels
// at the ten-thousand-event depths a streaming run holds — and both
// sifts move a hole to the element's final slot and write it once,
// rather than swapping it through every level.
type queue struct {
	s []event
}

func (q *queue) Len() int { return len(q.s) }

// Peek returns the earliest event without removing it. The queue must
// not be empty.
func (q *queue) Peek() *event { return &q.s[0] }

// Push adds ev. It allocates only when the backing array grows.
func (q *queue) Push(ev event) {
	q.s = append(q.s, ev)
	s := q.s
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !before(&ev, &s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = ev
}

// Pop removes and returns the earliest event. The queue must not be
// empty.
func (q *queue) Pop() event {
	s := q.s
	top := s[0]
	n := len(s) - 1
	ev := s[n]
	s[n] = event{} // release the timer and runner the slot referenced
	s = s[:n]
	q.s = s
	if n == 0 {
		return top
	}
	// Sift the hole at the root down to where the former last element
	// belongs.
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if before(&s[c], &s[min]) {
				min = c
			}
		}
		if !before(&s[min], &ev) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = ev
	return top
}
