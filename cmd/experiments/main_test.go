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

// TestProfilesSurviveFailingRun: a study error exits 1, and the runs
// that fail are the ones worth profiling — both profile files must be
// complete (non-empty) when the process is gone.
func TestProfilesSurviveFailingRun(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	// A 5-host pool cannot hold the scale study's 100-member session.
	cmd := exec.Command(os.Args[0], "-fig", "scale", "-hosts", "5", "-cpuprofile", cpu, "-memprofile", mem)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("want exit status 1, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "exceeds pool size") {
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
