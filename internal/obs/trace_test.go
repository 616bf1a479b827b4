package obs

import (
	"reflect"
	"testing"
)

func TestTraceRingWraparound(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Kind: KindSend, From: i})
	}
	if tr.Total() != 10 {
		t.Errorf("total = %d, want 10", tr.Total())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d, want 4", len(evs))
	}
	// Oldest-first: froms 6,7,8,9.
	for i, ev := range evs {
		if ev.From != 6+i {
			t.Errorf("events[%d].From = %d, want %d", i, ev.From, 6+i)
		}
	}
	tail := tr.Tail(2)
	if len(tail) != 2 || tail[0].From != 8 || tail[1].From != 9 {
		t.Errorf("tail = %+v", tail)
	}
	for _, n := range []int{0, -1, -5} {
		if tail := tr.Tail(n); len(tail) != 0 {
			t.Errorf("Tail(%d) = %+v, want none", n, tail)
		}
	}
}

func TestTraceSummarySurvivesEviction(t *testing.T) {
	tr := NewTrace(2) // tiny ring; tallies must still cover everything
	tr.Record(Event{Kind: KindDeliver, Latency: 10})
	tr.Record(Event{Kind: KindDeliver, Latency: 30})
	tr.Record(Event{Kind: KindDrop, Cause: "link-loss"})
	tr.Record(Event{Kind: KindDrop, Cause: "crash"})
	tr.Record(Event{Kind: KindDrop, Cause: "crash"})
	tr.Record(Event{Kind: KindHop, Hop: 3})
	tr.Record(Event{Kind: KindHop, Hop: 1})
	s := tr.Summary()
	if s.Total != 7 {
		t.Errorf("total = %d, want 7", s.Total)
	}
	if s.LatCount != 2 || s.LatMin != 10 || s.LatMax != 30 || s.LatMean != 20 {
		t.Errorf("latency stats = %+v", s)
	}
	if s.HopCount != 2 || s.HopMax != 3 || s.HopMean != 2 {
		t.Errorf("hop stats = %+v", s)
	}
	wantCauses := []CauseCount{{Cause: "crash", Count: 2}, {Cause: "link-loss", Count: 1}}
	if !reflect.DeepEqual(s.ByCause, wantCauses) {
		t.Errorf("causes = %+v, want %+v", s.ByCause, wantCauses)
	}
	for i := 1; i < len(s.ByKind); i++ {
		if s.ByKind[i-1].Kind >= s.ByKind[i].Kind {
			t.Error("kinds not sorted")
		}
	}
}

// TestTraceDeterministic: the same event sequence yields the same
// Events slice and Summary, regardless of how many times it is read.
func TestTraceDeterministic(t *testing.T) {
	feed := func() *Trace {
		tr := NewTrace(8)
		for i := 0; i < 20; i++ {
			tr.Record(Event{Kind: EventKind(i % 5), From: i, To: i + 1, Hop: i % 4, Latency: float64(i)})
		}
		return tr
	}
	a, b := feed(), feed()
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Error("identical feeds retained different events")
	}
	if !reflect.DeepEqual(a.Summary(), b.Summary()) {
		t.Error("identical feeds summarized differently")
	}
	if !reflect.DeepEqual(a.Events(), a.Events()) {
		t.Error("Events not stable across reads")
	}
}

func TestEventString(t *testing.T) {
	ev := Event{Time: 1234.5, Kind: KindDrop, From: 3, To: 9, Cause: "partition"}
	s := ev.String()
	for _, want := range []string{"drop", "3->9", "partition"} {
		if !contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
