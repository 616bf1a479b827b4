package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"

	"p2ppool/internal/eventsim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/studies.golden from this build's output")

// TestStudyGolden pins the nine event-driven studies across commits.
// The worker-determinism tests compare two runs of one build; a refactor
// of the shared harness (cell.go, core's ring assembly) moves both the
// same way and they stay green. This file is the parent's output: a refactor must reproduce it
// byte for byte, and a deliberate behaviour change regenerates it with
//
//	go test ./internal/experiments -run TestStudyGolden -update
//
// and says so in its PR. Sizes are the smoke tests' (every cell of load
// and conf, the churn and non-churn stream cells, three chaos rates,
// four audit seeds, both flows of two somo fanouts, two churn fractions,
// the 16-member obs ring with its trace tail, one 200-host scale cell —
// whose table carries no wall-clock field).
func TestStudyGolden(t *testing.T) {
	studies := []struct {
		name string
		run  func() (Result, error)
	}{
		{"load", func() (Result, error) {
			opts := smallLoad(1)
			opts.Hosts = 300
			opts.Window = 45 * eventsim.Second
			return Load(opts)
		}},
		{"stream", func() (Result, error) {
			opts := smallStream(1)
			opts.Hosts = 300
			opts.Chunks = 8
			return Stream(opts)
		}},
		{"conf", func() (Result, error) { return Conf(smallConf(1)) }},
		{"chaos", func() (Result, error) {
			return Chaos(ChaosOptions{Hosts: 64, GroupSize: 10, Rates: []float64{0, 1, 4},
				Window: 2 * eventsim.Minute, Seed: 1})
		}},
		{"audit", func() (Result, error) {
			return Audit(AuditOptions{
				Hosts: 32, GroupSize: 8, Seeds: 4,
				Window: 60 * eventsim.Second, Settle: 45 * eventsim.Second,
				PartitionAt: 25 * eventsim.Second, PartitionFor: 15 * eventsim.Second,
				Seed: 1,
			})
		}},
		{"somo", func() (Result, error) {
			return SOMOExperiment(SOMOOptions{Sizes: []int{64}, Fanouts: []int{2, 8},
				Runtime: 45 * eventsim.Second, Seed: 1})
		}},
		{"churn", func() (Result, error) {
			return Churn(ChurnOptions{Nodes: 64, CrashFractions: []float64{0.1, 0.2}, Seed: 1})
		}},
		{"obs", func() (Result, error) {
			return Obs(ObsOptions{Nodes: 16, Runtime: 100 * eventsim.Second, TraceTail: 8, Seed: 3})
		}},
		{"scale", func() (Result, error) {
			return Scale(ScaleOptions{Sizes: []int{200}, Runtime: 10 * eventsim.Second,
				GroupSize: 20, Seed: 1})
		}},
	}
	var b strings.Builder
	for _, s := range studies {
		res, err := s.run()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		b.WriteString("#### " + s.name + "\n")
		b.WriteString(renderAll(res))
	}
	got := b.String()

	const path = "testdata/studies.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	// Name the first differing line: a harness slip usually moves one
	// number, and the rows are too wide to eyeball in a full dump.
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}
