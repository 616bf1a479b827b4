package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// benchDoc decodes just enough of a bench file to assert on its shape.
type benchDoc struct {
	Schema string `json:"schema"`
	Runs   []struct {
		Label  string            `json:"label"`
		Shards int               `json:"shards"`
		Rows   []json.RawMessage `json:"rows"`
	} `json:"runs"`
}

func parseBenchDoc(t *testing.T, data []byte) benchDoc {
	t.Helper()
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("bench JSON does not parse: %v\n%s", err, data)
	}
	return doc
}

func (d benchDoc) labels() string {
	var out []string
	for _, r := range d.Runs {
		out = append(out, r.Label)
	}
	return strings.Join(out, ",")
}

// TestAppendBenchJSONAccumulatesAndReplaces: the labeled-run format of
// all four bench files — a fresh file carries the study's schema, one
// run and the study's rows; a second label accumulates after the first;
// re-appending a label replaces that run (moving it last) and keeps the
// rest; an empty label is "dev"; another study's file is refused.
func TestAppendBenchJSONAccumulatesAndReplaces(t *testing.T) {
	type appendFunc func(existing []byte, label string) ([]byte, error)
	cases := []struct {
		name    string
		schema  string
		foreign string   // some other study's schema
		want    []string // fragments a fresh file must contain
		result  func(t *testing.T) appendFunc
	}{
		{"scale", "bench-scale/v2", "bench-scale/v9", []string{`"hosts": 200`, `"shards": 8`, `"runtime_ms": 10000`},
			func(t *testing.T) appendFunc { return smallScaleResult(t).AppendBenchJSON }},
		{"load", "bench-load/v1", "bench-scale/v2", []string{`"cell": "steady"`, `"window_ms": 60000`, `"hosts": 400`},
			func(t *testing.T) appendFunc {
				opts := smallLoad(5)
				opts.Cells = []string{"steady"}
				opts.Bench = true
				res, err := Load(opts)
				if err != nil {
					t.Fatal(err)
				}
				return res.AppendBenchJSON
			}},
		{"stream", "bench-stream/v1", "bench-load/v1", []string{`"cell": "live"`, `"rung_kbps": 300`, `"sessions": 3`},
			func(t *testing.T) appendFunc {
				opts := smallStream(4)
				opts.Cells = []string{"live"}
				opts.Rungs = []float64{300}
				opts.Bench = true
				res, err := Stream(opts)
				if err != nil {
					t.Fatal(err)
				}
				return res.AppendBenchJSON
			}},
		{"conf", "bench-conf/v1", "bench-stream/v1", []string{`"cell": "solo"`, `"shared_bound_kbps"`, `"conf_size": 4`},
			func(t *testing.T) appendFunc {
				opts := smallConf(3)
				opts.Cells = []string{"solo"}
				opts.Bench = true
				res, err := Conf(opts)
				if err != nil {
					t.Fatal(err)
				}
				return res.AppendBenchJSON
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			write := c.result(t)
			step := func(existing []byte, label string) []byte {
				t.Helper()
				out, err := write(existing, label)
				if err != nil {
					t.Fatalf("append %q: %v", label, err)
				}
				return out
			}
			fresh := step(nil, "a")
			doc := parseBenchDoc(t, fresh)
			if doc.Schema != c.schema || doc.labels() != "a" || len(doc.Runs[0].Rows) != 1 {
				t.Errorf("fresh file: schema %q, runs %q, want %q with one run of one row:\n%s",
					doc.Schema, doc.labels(), c.schema, fresh)
			}
			for _, want := range c.want {
				if !strings.Contains(string(fresh), want) {
					t.Errorf("fresh file missing %s:\n%s", want, fresh)
				}
			}
			same := step(fresh, "a")
			if got := parseBenchDoc(t, same).labels(); got != "a" {
				t.Errorf("re-appending the only label: runs %q, want a", got)
			}
			two := step(same, "b")
			if got := parseBenchDoc(t, two).labels(); got != "a,b" {
				t.Errorf("after a second label: runs %q, want a,b", got)
			}
			three := step(two, "a")
			if got := parseBenchDoc(t, three).labels(); got != "b,a" {
				t.Errorf("after replacing a: runs %q, want b,a", got)
			}
			if got := parseBenchDoc(t, step(three, "")).labels(); got != "b,a,dev" {
				t.Errorf("empty label: runs %q, want b,a,dev", got)
			}
			if _, err := write([]byte(fmt.Sprintf(`{"schema":%q}`, c.foreign)), "x"); err == nil {
				t.Errorf("file with schema %s accepted", c.foreign)
			}
		})
	}
}

// TestAppendBenchJSONKeepsUnknownFields: runs already in a file pass
// through a rewrite untouched — a per-run and a per-row field this
// build has never heard of (BENCH_scale.json's pr9 run carries a
// build_ms per row) survive, and number literals keep their spelling
// (1e3 is not rewritten as 1000, nor 0.50 as 0.5).
func TestAppendBenchJSONKeepsUnknownFields(t *testing.T) {
	existing := `{
  "schema": "bench-scale/v2",
  "runs": [
    {
      "label": "old",
      "seed": 1,
      "machine": "someone else's laptop",
      "shards": 8,
      "rows": [
        {
          "hosts": 1200,
          "build_ms": 1e3,
          "improvement": 0.50
        }
      ]
    }
  ]
}
`
	out, err := smallScaleResult(t).AppendBenchJSON([]byte(existing), "new")
	if err != nil {
		t.Fatal(err)
	}
	if got := parseBenchDoc(t, out).labels(); got != "old,new" {
		t.Fatalf("runs %q, want old,new", got)
	}
	// The old run is a prefix of the new file, byte for byte, up to the
	// comma that now follows it.
	oldRun := existing[:strings.LastIndex(existing, "    }\n")+len("    }")]
	if !strings.HasPrefix(string(out), oldRun+",\n") {
		t.Errorf("existing run was rewritten:\n--- before ---\n%s\n--- after ---\n%s", existing, out)
	}
}

func TestAppendBenchJSONRejectsGarbage(t *testing.T) {
	res := smallScaleResult(t)
	if _, err := res.AppendBenchJSON([]byte("not json"), "x"); err == nil {
		t.Error("garbage input accepted")
	}
	if _, err := res.AppendBenchJSON([]byte(`{"schema":"bench-scale/v9"}`), "x"); err == nil {
		t.Error("unknown schema accepted")
	}
	// The v1 single-run layout was migrated on read until PR 15; no v1
	// file is left, so it is now just another unknown schema.
	v1 := `{"schema": "bench-scale/v1", "seed": 1, "runtime_ms": 60000, "group_size": 100,
	  "rows": [{"hosts": 1200, "wall_ms": 5000, "peak_rss_mb": 29.5}]}`
	if _, err := res.AppendBenchJSON([]byte(v1), "x"); err == nil {
		t.Error("bench-scale/v1 file accepted")
	}
	if _, err := res.AppendBenchJSON([]byte(`{"schema":"bench-scale/v2","runs":[42]}`), "x"); err == nil {
		t.Error("a run that is not an object accepted")
	}
}

func TestAppendBenchJSONRefusesShardMismatch(t *testing.T) {
	res := smallScaleResult(t) // runs under the structural shard count (8)
	existing, err := res.AppendBenchJSON(nil, "base")
	if err != nil {
		t.Fatal(err)
	}
	if got := parseBenchDoc(t, existing).Runs[0].Shards; got != scaleShards {
		t.Fatalf("recorded shards = %d, want %d", got, scaleShards)
	}

	// A baseline produced under a different structural shard count must
	// refuse this run — its figures chart a different seed schedule.
	fourShards := strings.Replace(string(existing), `"shards": 8`, `"shards": 4`, 1)
	if got := parseBenchDoc(t, []byte(fourShards)).Runs[0].Shards; got != 4 {
		t.Fatalf("crafted baseline records %d shards, want 4", got)
	}
	if _, err := res.AppendBenchJSON([]byte(fourShards), "new"); err == nil {
		t.Fatal("appending an 8-shard run onto a 4-shard baseline succeeded")
	} else if !strings.Contains(err.Error(), "structural") {
		t.Fatalf("refusal should name the structural mismatch, got: %v", err)
	}
	// Replacing the mismatched baseline itself under its own label is
	// allowed (that is how a file is intentionally re-based).
	if _, err := res.AppendBenchJSON([]byte(fourShards), "base"); err != nil {
		t.Fatalf("same-label replace refused: %v", err)
	}

	// Legacy runs with no recorded shard count are treated as the
	// then-hardwired 8: this run appends beside one, and a 4-shard run
	// beside it in the same file is still the one refused.
	legacy := `{"label": "pr4", "seed": 1,
	  "runtime_ms": 60000, "group_size": 100,
	  "rows": [{"hosts": 1200, "wall_ms": 1, "allocs": 1, "events": 1,
	            "events_per_sec": 1, "heap_inuse_mb": 1, "peak_rss_mb": 1,
	            "staleness_ms": 1, "improvement": 0.1}]}`
	if _, err := res.AppendBenchJSON([]byte(`{"schema": "bench-scale/v2", "runs": [`+legacy+`]}`), "new"); err != nil {
		t.Fatalf("8-shard append onto a legacy run refused: %v", err)
	}
	mixed := `{"schema": "bench-scale/v2", "runs": [` + legacy + `, {"label": "odd", "shards": 4, "rows": []}]}`
	if _, err := res.AppendBenchJSON([]byte(mixed), "new"); err == nil {
		t.Fatal("append onto a file holding a legacy run and a 4-shard run succeeded")
	} else if !strings.Contains(err.Error(), `"odd"`) {
		t.Fatalf("refusal should name the 4-shard run, not the legacy one, got: %v", err)
	}
}
