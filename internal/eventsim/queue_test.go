package eventsim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// TestQueueMatchesContainerHeap drives the engine's queue and the
// container/heap model of differential_test.go with the same pushes and
// pops, at depths (thousands) and with tie rates the engine-level
// differential does not reach. (at, seq) is a total order, so every pop
// must agree exactly; a vacated slot must not keep its timer or runner
// reachable.
func TestQueueMatchesContainerHeap(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var q queue
	var ref refQueue
	tm := &Timer{}
	var seq uint64
	for op := 0; op < 60000; op++ {
		// Fill to a few thousand, then hold around that depth.
		if ref.Len() == 0 || (ref.Len() < 4000 && r.Intn(3) != 0) || r.Intn(2) == 0 {
			seq++
			at := Time(r.Intn(200)) // far fewer instants than events
			q.Push(event{at: at, seq: seq, timer: tm})
			heap.Push(&ref, refEvent{at: at, seq: seq})
		} else {
			if peek := q.Peek(); peek.at != ref[0].at || peek.seq != ref[0].seq {
				t.Fatalf("op %d: peek (%v, %d), want (%v, %d)", op, peek.at, peek.seq, ref[0].at, ref[0].seq)
			}
			got, want := q.Pop(), heap.Pop(&ref).(refEvent)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("op %d: pop (%v, %d), want (%v, %d)", op, got.at, got.seq, want.at, want.seq)
			}
			if vacated := q.s[:len(q.s)+1][len(q.s)]; vacated.timer != nil {
				t.Fatalf("op %d: the vacated slot still references its timer", op)
			}
		}
		if q.Len() != ref.Len() {
			t.Fatalf("op %d: len %d, want %d", op, q.Len(), ref.Len())
		}
	}
	for ref.Len() > 0 {
		got, want := q.Pop(), heap.Pop(&ref).(refEvent)
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("drain: pop (%v, %d), want (%v, %d)", got.at, got.seq, want.at, want.seq)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d after draining", q.Len())
	}
}
