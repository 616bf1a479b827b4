package obs

import (
	"reflect"
	"testing"
)

func TestNilSafety(t *testing.T) {
	// The "observability off" mode: nil registry, nil handles, nil
	// trace. Every operation must be a no-op, not a panic, and a
	// counter or gauge reader registered on a nil registry is never
	// called.
	var r *Registry
	r.Counter("x", func() uint64 { t.Error("counter reader called on a nil registry"); return 5 })
	r.Gauge("y", func() float64 { t.Error("gauge reader called on a nil registry"); return 3 })
	h := r.Histogram("z", nil)
	h.Observe(10)
	if h.Count() != 0 || h.Mean() != 0 {
		t.Error("nil handles must read as zero")
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Error("nil registry must snapshot empty")
	}
	var tr *Trace
	tr.Record(Event{Kind: KindSend})
	if tr.Total() != 0 || tr.Events() != nil {
		t.Error("nil trace must record nothing")
	}
	if s := tr.Summary(); s.Total != 0 {
		t.Error("nil trace summary must be zero")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	// Two instances register the same name: the snapshot sums them, and
	// reads each at snapshot time, not at registration.
	var a, b uint64
	r.Counter("transport.sent", func() uint64 { return a })
	r.Counter("transport.sent", func() uint64 { return b })
	a, b = 5, 2
	if v := r.Snapshot().Counter("transport.sent"); v != 7 {
		t.Errorf("counter = %d, want 7", v)
	}
	a++
	if v := r.Snapshot().Counter("transport.sent"); v != 8 {
		t.Errorf("counter after a change = %d, want 8", v)
	}
	// A gauge reads its state at snapshot time, not at registration,
	// and a second reader under one name replaces the first.
	reads, last := 0, 0.0
	r.Gauge("somo.last_report_ms", func() float64 { reads++; return last })
	if reads != 0 {
		t.Errorf("gauge reader called %d times at registration, want 0", reads)
	}
	last = 100
	if v, _ := r.Snapshot().Gauge("somo.last_report_ms"); v != 100 || reads != 1 {
		t.Errorf("gauge = %v after %d reads, want 100 after 1", v, reads)
	}
	last = 90
	if v, _ := r.Snapshot().Gauge("somo.last_report_ms"); v != 90 {
		t.Errorf("gauge after a change = %v, want 90", v)
	}
	r.Gauge("somo.last_report_ms", func() float64 { return 7 })
	if v, _ := r.Snapshot().Gauge("somo.last_report_ms"); v != 7 || reads != 2 {
		t.Errorf("replaced gauge = %v with the first reader called %d times, want 7 and 2", v, reads)
	}
	h := r.Histogram("lat", []float64{10, 100})
	for _, v := range []float64{5, 50, 500, 7} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("hist count = %d, want 4", h.Count())
	}
	if h.Mean() != (5+50+500+7)/4.0 {
		t.Errorf("hist mean = %v", h.Mean())
	}
	snap, ok := r.Snapshot().Histogram("lat")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if !reflect.DeepEqual(snap.Buckets, []uint64{2, 1, 1}) {
		t.Errorf("buckets = %v, want [2 1 1]", snap.Buckets)
	}
	if snap.Min != 5 || snap.Max != 500 {
		t.Errorf("min/max = %v/%v, want 5/500", snap.Min, snap.Max)
	}
}

// TestSnapshotDeterministic: two registries fed the same metrics in
// different insertion orders must snapshot to identical values — the
// property that lets snapshots travel inside SOMO records without
// breaking byte-identical experiment output.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(names []string) Snapshot {
		r := New()
		for _, n := range names {
			v := uint64(10 + len(n))
			r.Counter(n, func() uint64 { return v })
			r.Gauge("g."+n, func() float64 { return float64(len(n)) })
			r.Histogram("h."+n, []float64{1, 2}).Observe(1.5)
		}
		return r.Snapshot()
	}
	a := build([]string{"alpha", "beta", "gamma"})
	b := build([]string{"gamma", "alpha", "beta"})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("snapshots differ by insertion order:\n%+v\n%+v", a, b)
	}
	for i := 1; i < len(a.Counters); i++ {
		if a.Counters[i-1].Name >= a.Counters[i].Name {
			t.Error("counters not sorted by name")
		}
	}
}

func TestSnapshotLookups(t *testing.T) {
	r := New()
	r.Counter("a", func() uint64 { return 7 })
	r.Gauge("b", func() float64 { return 2.5 })
	s := r.Snapshot()
	if s.Counter("a") != 7 || s.Counter("missing") != 0 {
		t.Error("snapshot counter lookup wrong")
	}
	if v, ok := s.Gauge("b"); !ok || v != 2.5 {
		t.Error("snapshot gauge lookup wrong")
	}
	if _, ok := s.Gauge("missing"); ok {
		t.Error("missing gauge reported present")
	}
}
