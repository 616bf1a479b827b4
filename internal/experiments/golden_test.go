package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"

	"p2ppool/internal/eventsim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/studies.golden from this build's output")

// TestStudyGolden pins the nine event-driven studies across commits; the
// six classic figures (4, 5, 8, 10, qos, ablations) are pinned the same
// way from their worker-determinism tests, which already hold a
// Workers=1 rendering. Those tests compare two runs of one build; a
// refactor of the shared harness (cell.go, core's ring assembly, the
// figures' world) moves both the same way and they stay green. The
// golden file is the parent's output: a refactor must reproduce it byte
// for byte, and a deliberate behaviour change regenerates it with
//
//	go test ./internal/experiments -update
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
	for _, s := range studies {
		res, err := s.run()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		checkGolden(t, s.name, renderAll(res))
	}
}

const goldenPath = "testdata/studies.golden"

// checkGolden compares got with the "#### name" section of the golden
// file — the lines from that header to the next one — or, under
// -update, replaces that section (appending it when the file has none).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil && !(*updateGolden && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	file, header := string(data), "#### "+name+"\n"
	start, end := strings.Index(file, header), len(file)
	if start >= 0 {
		if next := strings.Index(file[start:], "\n#### "); next >= 0 {
			end = start + next + 1
		}
	}
	if *updateGolden {
		if start < 0 {
			start = end
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(file[:start]+header+got+file[end:]), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if start < 0 {
		t.Errorf("%s has no %q section", goldenPath, strings.TrimSpace(header))
		return
	}
	body := start + len(header)
	want := file[body:end]
	if got == want {
		return
	}
	// Name the first differing line: a harness slip usually moves one
	// number, and the rows are too wide to eyeball in a full dump.
	first := strings.Count(file[:body], "\n") + 1
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("%s line %d (%s) differs:\n got: %s\nwant: %s", goldenPath, first+i, name, gl[i], wl[i])
			return
		}
	}
	t.Errorf("%s section %s: got %d lines, want %d", goldenPath, name, len(gl), len(wl))
}
