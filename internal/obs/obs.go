// Package obs is the in-band observability layer of the resource pool:
// a per-node metrics registry (counters, gauges and virtual-clock
// histograms) plus a hop-level message trace (trace.go). The paper's
// core claim is that SOMO turns the DHT into a *self-monitoring*
// system, so the layer is designed to be dogfooded through SOMO
// itself: each member's LocalFunc payload carries its registry
// snapshot (the Health record below), which makes the SOMO root
// snapshot double as the system-health dashboard — no side channel,
// the monitoring data rides the monitored overlay.
//
// Two properties are load-bearing:
//
//   - Zero observer effect. An instrumented run is event-identical
//     to an uninstrumented one (pinned by TestObsObserverEffectZero):
//     recording never schedules an event, draws randomness or sends a
//     message. Counters and gauges cost nothing while the run goes on.
//     Each layer keeps its own counts and state whether or not it is
//     instrumented; Instrument registers functions that read them, and
//     only Snapshot calls those. Only histograms record as the run
//     goes, because their samples are kept nowhere else: through
//     handles that are nil in a layer nobody instrumented, so each
//     record call is one nil-check.
//
//   - Deterministic snapshots. Snapshot output is sorted by name and
//     carries no wall-clock state, so the same seed produces the same
//     bytes for any worker count.
package obs

import "sort"

// Histogram accumulates observations (typically virtual-clock
// latencies in milliseconds) into fixed buckets. Allocation happens
// once at creation; Observe is a scan over a handful of bounds.
type Histogram struct {
	name    string
	bounds  []float64 // upper bounds, ascending; implicit +Inf last
	buckets []uint64  // len(bounds)+1
	count   uint64
	sum     float64
	min     float64
	max     float64
}

// DefaultLatencyBounds bucket one-way and round-trip virtual-clock
// latencies (ms) at the scales the simulated topologies produce.
var DefaultLatencyBounds = []float64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i]++
			return
		}
	}
	h.buckets[len(h.bounds)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Registry is one node's metric namespace. Like the protocol state
// machines it instruments, it is single-threaded: drive it from the
// event loop (or one dispatch goroutine) only. All methods are
// nil-safe, so a nil *Registry is the "observability off" mode.
type Registry struct {
	counters map[string][]func() uint64
	gauges   map[string]func() float64
	hists    map[string]*Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string][]func() uint64),
		gauges:   make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter registers read as a source of the named counter: Snapshot
// reports the sum of every reader registered under one name, so several
// instances instrumented into one registry share one total. read
// returns a count its layer keeps anyway and is called only at
// Snapshot. Register one reader per instrumented object: instrumenting
// the same object twice into a registry counts it twice. A nil registry
// ignores the call.
func (r *Registry) Counter(name string, read func() uint64) {
	if r != nil {
		r.counters[name] = append(r.counters[name], read)
	}
}

// Gauge registers read as the named gauge: Snapshot reports what read
// returns then. read returns state its layer keeps anyway and is called
// only at Snapshot. A later reader under the same name replaces the
// earlier one, so runs that share a registry in turn report the last
// run's state. A nil registry ignores the call.
func (r *Registry) Gauge(name string, read func() float64) {
	if r != nil {
		r.gauges[name] = read
	}
}

// Histogram returns (creating if needed) the named histogram with the
// given bucket bounds (ascending; nil means DefaultLatencyBounds). The
// bounds of an existing histogram are not changed.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = DefaultLatencyBounds
		}
		h = &Histogram{
			name:    name,
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]uint64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string
	Value uint64
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string
	Value float64
}

// HistogramValue is one histogram in a snapshot.
type HistogramValue struct {
	Name    string
	Count   uint64
	Sum     float64
	Min     float64
	Max     float64
	Bounds  []float64
	Buckets []uint64
}

// Mean returns the snapshot's average observation (0 when empty).
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Snapshot is a registry frozen at one instant, sorted by name so that
// equal registries snapshot to equal values (the determinism contract;
// it travels inside SOMO records, so it must also be cheap).
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

// Snapshot freezes the registry. A nil registry snapshots to the zero
// Snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make([]CounterValue, 0, len(r.counters))
		for name, reads := range r.counters {
			var v uint64
			for _, read := range reads {
				v += read()
			}
			s.Counters = append(s.Counters, CounterValue{Name: name, Value: v})
		}
		sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	}
	if len(r.gauges) > 0 {
		s.Gauges = make([]GaugeValue, 0, len(r.gauges))
		for name, read := range r.gauges {
			s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: read()})
		}
		sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	}
	if len(r.hists) > 0 {
		s.Histograms = make([]HistogramValue, 0, len(r.hists))
		for _, h := range r.hists {
			s.Histograms = append(s.Histograms, HistogramValue{
				Name:    h.name,
				Count:   h.count,
				Sum:     h.sum,
				Min:     h.min,
				Max:     h.max,
				Bounds:  append([]float64(nil), h.bounds...),
				Buckets: append([]uint64(nil), h.buckets...),
			})
		}
		sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	}
	return s
}

// Counter returns the named counter's value in the snapshot (0 when
// absent) — the lookup the health dashboard uses per record.
func (s Snapshot) Counter(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named gauge's value and whether it is present.
func (s Snapshot) Gauge(name string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// Histogram returns the named histogram's snapshot and whether it is
// present.
func (s Snapshot) Histogram(name string) (HistogramValue, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramValue{}, false
}
