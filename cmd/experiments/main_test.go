package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv makes the test binary behave as the command itself, so a
// test can observe its exit code and the files it leaves behind.
const runMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runMain re-executes the test binary as the command and returns its
// exit code, stdout and stderr.
func runMain(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return code, out.String(), errb.String()
}

// TestProfilesSurviveFailingRun: a study error exits 1, and the runs
// that fail are the ones worth profiling — both profile files must be
// complete (non-empty) when the process is gone.
func TestProfilesSurviveFailingRun(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	// A 5-host pool cannot hold the scale study's 100-member session.
	code, _, out := runMain(t, "-fig", "scale", "-hosts", "5", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 1 {
		t.Fatalf("want exit status 1, got %d\n%s", code, out)
	}
	if !strings.Contains(out, "exceeds pool size") {
		t.Errorf("the run did not fail the expected way:\n%s", out)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil {
			t.Errorf("after a failing run: %v", err)
		} else if st.Size() == 0 {
			t.Errorf("%s is empty after a failing run", filepath.Base(path))
		}
	}
}

// TestBenchJSONFailureKeepsTables: a bench file the study cannot append
// to is discovered only after the run, which may have taken minutes —
// the command still prints the run's tables, then exits 1. A study with
// no bench trajectory says so the same way, and a fresh path is written.
func TestBenchJSONFailureKeepsTables(t *testing.T) {
	dir := t.TempDir()
	scale := []string{"-fig", "scale", "-hosts", "200", "-scale-runtime", "5", "-benchjson"}

	loadDoc := filepath.Join(dir, "load.json")
	if err := os.WriteFile(loadDoc, []byte(`{"schema":"bench-load/v1","runs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runMain(t, append(scale, loadDoc)...)
	if code != 1 || !strings.Contains(stderr, "bench-load/v1") {
		t.Errorf("scale onto a bench-load file: exit %d, want 1 naming the schema\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "== Scale study") {
		t.Errorf("the finished run's table was not printed:\n%s", stdout)
	}

	fresh := filepath.Join(dir, "scale.json")
	if code, _, stderr := runMain(t, append(scale, fresh)...); code != 0 {
		t.Errorf("scale onto a fresh path: exit %d\n%s", code, stderr)
	}
	if data, err := os.ReadFile(fresh); err != nil || !strings.Contains(string(data), "bench-scale/v2") {
		t.Errorf("fresh bench file: %v\n%s", err, data)
	}

	none := filepath.Join(dir, "fig5.json")
	code, stdout, stderr = runMain(t, "-fig", "5", "-hosts", "100", "-benchjson", none)
	if code != 1 || !strings.Contains(stderr, "no bench trajectory") {
		t.Errorf("figure 5 with -benchjson: exit %d, want 1 saying it has no trajectory\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "== Figure 5") {
		t.Errorf("figure 5's table was not printed:\n%s", stdout)
	}
	if _, err := os.Stat(none); err == nil {
		t.Error("a bench file was written for a study that has none")
	}
}

// TestBenchJSONTakesOneStudy: one bench file holds one study's schema,
// so anything but exactly one selected study is refused before any of
// them runs.
func TestBenchJSONTakesOneStudy(t *testing.T) {
	// Sized so that a build without the check fails this test in a
	// second, not after two full-size studies.
	small := []string{"-hosts", "200", "-scale-runtime", "5", "-load-runtime", "5"}
	for _, fig := range []string{"scale,load", "5,scale"} {
		code, stdout, stderr := runMain(t, append(small, "-fig", fig, "-benchjson", filepath.Join(t.TempDir(), "x.json"))...)
		if code != 2 || strings.Contains(stderr, "running") || stdout != "" {
			t.Errorf("-fig %s -benchjson: exit %d, want 2 before anything runs\nstdout: %s\nstderr: %s", fig, code, stdout, stderr)
		}
	}
}

// firstNames renders a selection as its studies' first names.
func firstNames(sel []study) string {
	var out []string
	for _, st := range sel {
		out = append(out, st.names[0])
	}
	return strings.Join(out, " ")
}

func TestSelectStudies(t *testing.T) {
	cases := []struct {
		fig  string
		want string // selected studies in run order; "" means an error
		// errNames must all appear in the error; errOmits must not be
		// reported as unknown.
		errNames []string
		errOmits []string
	}{
		{fig: "all", want: "4 5 8 10 somo qos churn chaos ablations"},
		{fig: "10a", want: "10"},
		{fig: "10a,10b,10", want: "10"},
		// Opt-in studies run only by name, and print in table order
		// whatever order they were asked for in.
		{fig: "conf,obs", want: "obs conf"},
		{fig: "all,load", want: "4 5 8 10 somo qos churn chaos ablations load"},
		{fig: "qos", want: "qos"},
		// A typo beside a valid name fails the selection instead of
		// silently running the rest.
		{fig: "laod,stream", errNames: []string{`"laod"`, "qos", "10b", "stream"}, errOmits: []string{`"stream"`}},
		{fig: "laod,bogus", errNames: []string{`"laod"`, `"bogus"`}},
		{fig: "", errNames: []string{`""`}},
		{fig: "8,", errNames: []string{`""`}, errOmits: []string{`"8"`}},
	}
	for _, c := range cases {
		sel, err := selectStudies(c.fig)
		if c.want != "" {
			if err != nil {
				t.Errorf("-fig %q: %v", c.fig, err)
			} else if got := firstNames(sel); got != c.want {
				t.Errorf("-fig %q selected %q, want %q", c.fig, got, c.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("-fig %q selected %q, want an error", c.fig, firstNames(sel))
			continue
		}
		for _, name := range c.errNames {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("-fig %q: error %q does not mention %s", c.fig, err, name)
			}
		}
		for _, name := range c.errOmits {
			if strings.Contains(err.Error(), name) {
				t.Errorf("-fig %q: error %q reports %s as unknown", c.fig, err, name)
			}
		}
	}
}

// TestStudyNamesUnique: a name claimed by two studies would make -fig
// run both; "all" is reserved.
func TestStudyNamesUnique(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, st := range studies {
		for _, name := range st.names {
			if seen[name] {
				t.Errorf("-fig name %q is claimed twice", name)
			}
			seen[name] = true
		}
	}
}

// TestCSVFileNames: -csv names each file after its table's title, with
// separators turned into underscores and anything a shell would quote
// dropped.
func TestCSVFileNames(t *testing.T) {
	if got, want := sanitize("Figure 8: height/N (%)"), "Figure_8__height_N_"; got != want {
		t.Errorf("sanitize = %q, want %q", got, want)
	}
}
