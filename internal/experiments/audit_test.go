package experiments

import (
	"strings"
	"testing"

	"p2ppool/internal/eventsim"
	"p2ppool/internal/invariant"
)

// TestAuditShrinksToMinimalScript exercises the audit's full
// violation-to-reproduction path: a scenario whose settle period is
// deliberately too short to re-merge a healed partition must (a)
// produce eventual-phase violations, and (b) shrink — replaying
// subsets of the fault script through the deterministic eventsim — to
// just the partition, discarding every decoy crash/restart pair.
func TestAuditShrinksToMinimalScript(t *testing.T) {
	opts := AuditOptions{
		Hosts:     16,
		GroupSize: 5,
		Window:    40 * eventsim.Second,
		// One second of quiescence cannot possibly cover suspect
		// re-probing after a 20s partition: the eventual checks fire.
		Settle:     eventsim.Second,
		SweepEvery: 5 * eventsim.Second,
	}.withDefaults()
	const seed = 1
	ro := makeRoster(seed, opts)
	decoys := make([]int, 0, 2)
	for _, h := range ro.near {
		if h != ro.root && len(decoys) < 2 {
			decoys = append(decoys, h)
		}
	}
	script := []auditAction{
		{At: 5 * eventsim.Second, Op: opCrash, Host: decoys[0]},
		{At: 7 * eventsim.Second, Op: opCrash, Host: decoys[1]},
		{At: 20 * eventsim.Second, Op: opPartition},
		{At: 25 * eventsim.Second, Op: opRestart, Host: decoys[0]},
		{At: 27 * eventsim.Second, Op: opRestart, Host: decoys[1]},
	}

	out := auditRun(seed, ro, script, opts)
	if out.Err != "" {
		t.Fatalf("harness error: %s", out.Err)
	}
	if len(out.Violations) == 0 {
		t.Fatal("under-settled partition scenario produced no violations; the eventual checks are toothless")
	}
	first := out.Violations[0].V.Check

	replays := 0
	shrunk := invariant.Shrink(script, func(sub []auditAction) bool {
		replays++
		o := auditRun(seed, ro, sub, opts)
		return o.Err == "" && o.hasCheck(first)
	})
	if got := renderScript(shrunk); got != "partition@20.0s" {
		t.Fatalf("shrunk script = %s, want exactly the partition", got)
	}
	if v := out.Violations[0].V; !strings.HasPrefix(v.String(), first+": ") {
		t.Errorf("violation renders as %q, not led by its check %q", v.String(), first)
	}
	if replays > 40 {
		t.Fatalf("shrinking a 5-action script took %d replays", replays)
	}

	// The same scenario with a real settle period passes: the checks
	// measure the protocols, not the harness.
	opts.Settle = 60 * eventsim.Second
	clean := auditRun(seed, ro, script, opts)
	if clean.Err != "" || len(clean.Violations) != 0 {
		t.Fatalf("fully settled scenario still failing: err=%q violations=%v", clean.Err, clean.Violations)
	}
}
