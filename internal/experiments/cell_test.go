package experiments

import (
	"math/rand"
	"strings"
	"testing"

	"p2ppool/internal/eventsim"
	"p2ppool/internal/sched"
)

// TestPoissonCrashesMatchesInlineLoop: the shared churn schedule is the
// loop the five studies each used to spell out — same seed, same
// (time, victim) sequence, at the rates the studies run (load 4/min,
// conf 18/min) and one far hotter. The reference below is that loop,
// kept verbatim; a change in draw order would silently re-seed every
// churn table. (The draw sits on its own line so that a grep for the
// inline spelling finds only cell.go.)
func TestPoissonCrashesMatchesInlineLoop(t *testing.T) {
	const (
		from  = 5 * eventsim.Second
		until = 10 * eventsim.Minute
		n     = 97
	)
	for _, rate := range []float64{4, 18, 60} {
		ref := rand.New(rand.NewSource(42))
		var want []crashAt
		for at := eventsim.Time(from); ; {
			e := ref.ExpFloat64()
			gap := e / rate * float64(eventsim.Minute)
			at += eventsim.Time(gap)
			if at >= until {
				break
			}
			want = append(want, crashAt{at: at, pick: ref.Intn(n)})
		}
		got := poissonCrashes(rand.New(rand.NewSource(42)), rate, from, until, n)
		if len(got) != len(want) || len(got) < int(rate)*5 {
			t.Fatalf("rate %v: %d crashes, reference loop drew %d", rate, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rate %v: crash %d = %+v, reference %+v", rate, i, got[i], want[i])
			}
		}
	}
	if got := poissonCrashes(rand.New(rand.NewSource(42)), 0, from, until, n); got != nil {
		t.Errorf("rate 0 scheduled %d crashes", len(got))
	}
}

// TestServiceCellKeepsFirstError: a service call that fails inside an
// event callback is kept for the study to report, and a later failure
// does not overwrite it.
func TestServiceCellKeepsFirstError(t *testing.T) {
	c := newServiceCell(1, 0, synthLatency(rand.New(rand.NewSource(1)), 4), []int{4, 4, 4, 4}, sched.ServiceConfig{}, nil)
	for i, pri := range []int{1, 1, 0} {
		c.submitAt(eventsim.Time(i+1), func() *sched.Session {
			return &sched.Session{ID: 7, Priority: pri, Root: 0, Members: []int{1}}
		})
	}
	c.engine.RunUntil(eventsim.Second)
	if c.err == nil || !strings.Contains(c.err.Error(), "duplicate session 7") {
		t.Fatalf("cell error = %v, want the duplicate submission's", c.err)
	}
}

// TestAppendViolationsOnlyWhenFound: the violations table lists only
// the runs whose sweeps found something, and is absent when none did.
func TestAppendViolationsOnlyWhenFound(t *testing.T) {
	base := []Table{{Title: "t"}}
	counts := []int{0, 2, 0}
	run := func(i int) (string, int, string) { return string(rune('a' + i)), counts[i], "first" }
	got := appendViolations(base, "v", len(counts), run)
	if len(got) != 2 || got[1].Title != "v" || len(got[1].Rows) != 1 || got[1].Rows[0][0] != "b" || got[1].Rows[0][1] != "2" {
		t.Fatalf("one violating run: got %+v", got)
	}
	counts[1] = 0
	if got := appendViolations(base, "v", len(counts), run); len(got) != 1 {
		t.Fatalf("clean runs appended %d tables", len(got)-1)
	}
}
