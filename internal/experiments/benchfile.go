package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// The four study-level bench files (BENCH_scale/load/stream/conf.json)
// share one shape and one writer:
//
//	{
//	  "schema": "bench-<study>/vN",
//	  "runs": [{
//	    "label": "pr7",     // which PR/state produced the rows
//	    <run header>,       // the options that size the run
//	    "rows": [{...}, ...]
//	  }, ...]
//	}
//
// Each -benchjson invocation appends one labeled run, or replaces the
// run already carrying that label, so a file accumulates the per-PR
// trajectory instead of overwriting it. Runs already in the file are
// carried through as raw JSON: fields this build does not know and the
// exact number literals survive a rewrite. Wall-clock fields (wall_ms,
// plans_per_sec, events_per_sec, allocs, the memory readings) are only
// comparable between runs taken on one machine; everything else is a
// pure function of the seed and the header.
//
// bench-scale/v2 (scale.go) — header: seed, runtime_ms, group_size,
// shards (the structural shard count; absent in runs recorded before it
// was tracked, all of which ran the then-hardwired 8). Row per pool size:
//
//	"hosts": 1200,          // pool size
//	"routers": 600,         // underlay size (scales ≈ n/2)
//	"oracle": "exact",      // latency oracle the cell resolved to
//	"oracle_err_p50": 0,    // oracle relative error vs Dijkstra
//	"oracle_err_p90": 0,
//	"wall_ms": 0,           // total cell wall time
//	"allocs": 0,            // heap allocations over the cell
//	"events": 0,            // simulation events processed
//	"events_per_sec": 0,    // events / ring-simulation wall time
//	"heap_inuse_mb": 0,     // live Go heap after the cell (MemStats)
//	"peak_rss_mb": 0,       // OS peak resident set (VmHWM), process-wide
//	"staleness_ms": 0,      // worst root-snapshot record age
//	"improvement": 0        // fig-8-style Leafset+adjust gain
//
// Perf acceptance reads the newest run: events_per_sec must stay within
// 3x across the size sweep and heap growth must be sub-quadratic in N.
//
// bench-load/v1 (load.go) — header: seed, window_ms, hosts. Row per
// load shape:
//
//	"cell": "steady",        // load shape
//	"wall_ms": 0,            // cell wall time
//	"plans": 0,              // plans executed (deterministic)
//	"plans_per_sec": 0,      // plans / wall time: scheduler throughput
//	"peak_live": 0,          // concurrent-session high-water mark
//	"p99_admit_ms": 0,       // p99 admission latency (virtual ms)
//	"violations": 0          // invariant-sweep violations (must be 0)
//
// bench-stream/v1 (stream.go) — header: seed, hosts, sessions, chunks.
// Row per (cell, rung):
//
//	"cell": "live",          // scenario cell
//	"rung_kbps": 600,        // ladder rung
//	"bound_kbps": 0,         // member-only capacity bound
//	"delivered_kbps": 0,     // rung x on-time fraction
//	"miss_rate": 0,          // 1 - on-time fraction
//	"pull_saved": 0,         // tree misses recovered by mesh-pull
//	"offload": 0,            // 1 - source bytes / total bytes
//	"wall_ms": 0             // run wall time
//
// bench-conf/v1 (conf.go) — header: seed, hosts, conferences,
// conf_size, chunks. Row per cell:
//
//	"cell": "solo",          // scenario cell
//	"src_kbps": 250,         // per-source bitrate
//	"shared_bound_kbps": 0,  // sum(up)/(M*(M-1)) member-only bound
//	"iso_bound_kbps": 0,     // single-source bound for comparison
//	"delivered_kbps": 0,     // rung x on-time fraction
//	"min_src_kbps": 0,       // worst per-source delivered
//	"miss_rate": 0,          // 1 - on-time fraction
//	"bcast_kbps": 0,         // competing broadcasts' delivered
//	"max_height_ms": 0,      // worst planned latency bound
//	"violations": 0,         // invariant sweep violations
//	"wall_ms": 0             // run wall time

// benchField is one field of a benchObject.
type benchField struct {
	key string
	val any
}

// benchObject is a JSON object that keeps its fields in the order
// listed (a map would sort them): run headers, rows, and the run itself.
type benchObject []benchField

func (o benchObject) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, f := range o {
		val, err := json.Marshal(f.val)
		if err != nil {
			return nil, fmt.Errorf("bench field %q: %w", f.key, err)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%s", f.key, val)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// appendBenchRun merges a run labeled label ("dev" when empty) into an
// existing bench file of the given schema (existing may be nil or empty
// for a fresh file): a run already carrying the label is dropped, every
// other run is kept as it stands, and the new run — label, the header's
// fields, then rows — goes last. keep, when not nil, sees each run that
// stays and may refuse the merge.
func appendBenchRun(existing []byte, schema, label string, header benchObject, rows any, keep func(label string, run json.RawMessage) error) ([]byte, error) {
	if label == "" {
		label = "dev"
	}
	f := struct {
		Schema string            `json:"schema"`
		Runs   []json.RawMessage `json:"runs"`
	}{Schema: schema}
	if len(existing) > 0 {
		if err := json.Unmarshal(existing, &f); err != nil {
			return nil, fmt.Errorf("experiments: parsing bench file: %w", err)
		}
		if f.Schema != schema {
			return nil, fmt.Errorf("experiments: bench file has schema %q, this study writes %q", f.Schema, schema)
		}
	}
	kept := f.Runs[:0]
	for _, old := range f.Runs {
		var head struct {
			Label string `json:"label"`
		}
		if err := json.Unmarshal(old, &head); err != nil {
			return nil, fmt.Errorf("experiments: parsing bench run: %w", err)
		}
		if head.Label == label {
			continue
		}
		if keep != nil {
			if err := keep(head.Label, old); err != nil {
				return nil, err
			}
		}
		kept = append(kept, old)
	}
	run, err := json.Marshal(append(append(benchObject{{"label", label}}, header...), benchField{"rows", rows}))
	if err != nil {
		return nil, err
	}
	f.Runs = append(kept, run)
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
