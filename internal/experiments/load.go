package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"p2ppool/internal/alm"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/faultnet"
	"p2ppool/internal/obs"
	"p2ppool/internal/par"
	"p2ppool/internal/sched"
	"p2ppool/internal/stats"
)

// LoadOptions parameterizes the sustained-load study: the scheduler
// control plane (admission control, retry budgets, preemption damping,
// overload shedding) driven for a long virtual window by Poisson
// session arrivals, continuous churn, and — per cell — a diurnal rate
// curve, a flash crowd into one hot session, or a flat overload. The
// invariant audit's continuous checks (slot conservation, ledger,
// tree validity) sweep the pool throughout.
type LoadOptions struct {
	// Hosts is the pool size.
	Hosts int
	// Window is the observation window.
	Window eventsim.Time
	// ArrivalRate is the baseline session arrival rate in sessions per
	// virtual second; <= 0 derives it from the pool size so utilization
	// lands near saturation (that is the regime the control plane
	// exists for).
	ArrivalRate float64
	// Cells selects the load shapes to run; defaults to all four:
	// "steady" (flat Poisson at ArrivalRate), "diurnal" (rate modulated
	// 0.5x..1.3x over the window), "flash" (steady plus a flash crowd
	// into one hot P1 session), and "overload" (flat 2.5x).
	Cells []string
	Seed  int64
	// Workers bounds the parallelism; <= 0 means runtime.NumCPU(). The
	// output is identical for any worker count.
	Workers int
	// Bench enables wall-clock measurement (cells then run
	// sequentially so the readings are attributable).
	Bench bool
	// Registry, when set, instruments every cell's service and fault
	// layer, and the cells then run sequentially: a registry is
	// single-threaded.
	Registry *obs.Registry
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Hosts <= 0 {
		o.Hosts = 8000
	}
	if o.Window <= 0 {
		o.Window = 10 * eventsim.Minute
	}
	if o.ArrivalRate <= 0 {
		// Mean paper degree is ~3 slots/host and a loadGroupSize-4
		// session reserves ~6, so capacity is ~Hosts/2 concurrent
		// sessions; rate*loadLifetimeMean demands about half of that —
		// hot enough that member-host collisions force real admission
		// decisions, with room for the overload cell's 2.5x on top.
		o.ArrivalRate = float64(o.Hosts) / 1000
	}
	if len(o.Cells) == 0 {
		o.Cells = []string{"steady", "diurnal", "flash", "overload"}
	}
	return o
}

// The workload every cell prices; the ArrivalRate default above is
// sized against the first two.
const (
	// loadGroupSize is the arriving sessions' size including the root:
	// small, so a cell is about admission volume — thousands of
	// concurrent sessions — not about planning large trees.
	loadGroupSize = 4
	// loadLifetimeMean is the mean session lifetime (exponential): half
	// the default window, so sessions both pile up and drain within it.
	loadLifetimeMean = 5 * eventsim.Minute
	// loadFlashWindow is the flash crowd's burst width: three ticks,
	// well under the hot session's 2 s P1 admit deadline. The burst
	// starts mid-window; the hot session is submitted 30 s before.
	loadFlashWindow = 750 * eventsim.Millisecond
	// Churn runs throughout every cell, over the whole pool: crashes
	// per virtual minute, downtime, and the crash-to-NodeFailed lag.
	// It is background, not the subject — a crash every 15 s keeps the
	// repair path and the repair-lag invariant exercised under load.
	loadCrashRate    = 4.0
	loadRestartDelay = 20 * eventsim.Second
	loadDetectDelay  = 2 * eventsim.Second
)

// loadFlashJoins is the flash crowd's size: three fifths of the pool,
// capped at the 1,500 joins the full-size cell pushes into one session.
func loadFlashJoins(hosts int) int {
	return min(3*hosts/5, 1500)
}

// LoadRow is one cell's outcome. Everything except the Bench* fields
// is a pure function of the seed (worker-independent).
type LoadRow struct {
	Cell string
	// Admission funnel, summed over priority classes.
	Submitted    int
	Admitted     int
	Rejected     int
	ShedDeadline int
	ShedOverload int
	ShedBudget   int
	RootDied     int
	// PeakLive / EndLive are the concurrent-session high-water mark and
	// the count still planned at the window's end.
	PeakLive int
	EndLive  int
	// Planner activity.
	Plans           int
	PlanFailures    int
	Replans         int
	Preemptions     int
	PreemptDeferred int
	// MaxSessionReplans is the worst per-session replan count observed
	// at any sweep — the replan-cascade bound.
	MaxSessionReplans int
	Crashes           int
	FlashJoins        int // crowd joins actually applied
	// Admission latency percentiles, virtual ms from Submit to first
	// plan.
	AdmitP50MS float64
	AdmitP99MS float64
	// SLO is per-class admission-SLO compliance, indexed by priority
	// 1..3 (index 0 unused).
	SLO [sched.NumClasses + 1]float64
	// Violations counts invariant-sweep violations; FirstViolation is
	// the earliest one's rendering (empty when clean).
	Violations     int
	FirstViolation string

	// BenchWallMS / BenchPlansPerSec are wall-clock measurements filled
	// only when LoadOptions.Bench is set.
	BenchWallMS      float64 `json:"wall_ms"`
	BenchPlansPerSec float64 `json:"plans_per_sec"`
}

// PlansPerVirtualSec is planner throughput against the virtual clock —
// deterministic, unlike the Bench fields.
func (r LoadRow) PlansPerVirtualSec(window eventsim.Time) float64 {
	if window <= 0 {
		return 0
	}
	return float64(r.Plans) / (float64(window) / float64(eventsim.Second))
}

// LoadResult is the sustained-load study.
type LoadResult struct {
	Opts LoadOptions
	Rows []LoadRow
}

// ViolationCount returns the total invariant violations across cells —
// the study passes iff it is zero.
func (r *LoadResult) ViolationCount() int {
	n := 0
	for _, row := range r.Rows {
		n += row.Violations
	}
	return n
}

// Row returns the named cell's row (nil when absent).
func (r *LoadResult) Row(cell string) *LoadRow {
	for i := range r.Rows {
		if r.Rows[i].Cell == cell {
			return &r.Rows[i]
		}
	}
	return nil
}

// Load runs the sustained-load study: per cell, a long-running
// scheduler service under Poisson arrivals, churn and the cell's load
// shape, with continuous invariant sweeps.
func Load(opts LoadOptions) (*LoadResult, error) {
	opts = opts.withDefaults()
	if loadGroupSize+1 > opts.Hosts {
		return nil, fmt.Errorf("experiments: group size %d exceeds pool size %d", loadGroupSize, opts.Hosts)
	}
	if crowd := loadFlashJoins(opts.Hosts); slices.Contains(opts.Cells, "flash") && loadGroupSize+crowd > opts.Hosts {
		return nil, fmt.Errorf("experiments: the flash cell's session of %d and crowd of %d exceed pool size %d",
			loadGroupSize, crowd, opts.Hosts)
	}
	workers := opts.Workers
	if opts.Bench || opts.Registry != nil {
		// Sequential cells keep wall-clock readings attributable and
		// write the registry from one goroutine.
		workers = 1
	}
	rows, err := par.MapErr(workers, len(opts.Cells), func(i int) (LoadRow, error) {
		return loadRun(i, opts.Cells[i], opts)
	})
	if err != nil {
		return nil, err
	}
	return &LoadResult{Opts: opts, Rows: rows}, nil
}

// loadMultiplier is the cell's arrival-rate modulation at time t,
// relative to ArrivalRate.
func loadMultiplier(cell string, t, window eventsim.Time) float64 {
	switch cell {
	case "diurnal":
		// Half-to-peak curve over the window: 0.5x at the edges, 1.3x
		// at the midpoint.
		s := math.Sin(math.Pi * float64(t) / float64(window))
		return 0.5 + 0.8*s*s
	case "overload":
		return 2.5
	default: // steady, flash
		return 1
	}
}

// loadPeakMultiplier bounds loadMultiplier over the window (the
// thinning envelope).
func loadPeakMultiplier(cell string) float64 {
	switch cell {
	case "diurnal":
		return 1.3
	case "overload":
		return 2.5
	default:
		return 1
	}
}

// loadArrival is one pre-drawn session arrival.
type loadArrival struct {
	at      eventsim.Time
	life    eventsim.Time
	id      sched.SessionID
	pri     int
	root    int
	members []int
}

// genLoadArrivals pre-draws a cell's whole arrival schedule
// sequentially — Poisson arrivals via thinning against the peak rate,
// priority mix 20/30/50, distinct rosters, exponential lifetimes — so
// the event loop replays fixed data and the cell is deterministic.
func genLoadArrivals(cell string, rng *rand.Rand, opts LoadOptions) []loadArrival {
	peak := opts.ArrivalRate * loadPeakMultiplier(cell)
	var out []loadArrival
	id := sched.SessionID(1)
	for at := eventsim.Time(0); ; {
		gap := rng.ExpFloat64() / peak * float64(eventsim.Second)
		at += eventsim.Time(gap)
		if at >= opts.Window {
			return out
		}
		if rng.Float64()*loadPeakMultiplier(cell) > loadMultiplier(cell, at, opts.Window) {
			continue // thinned away
		}
		pri := 3
		switch u := rng.Float64(); {
		case u < 0.2:
			pri = 1
		case u < 0.5:
			pri = 2
		}
		roster := make([]int, 0, loadGroupSize)
		seen := make(map[int]bool, loadGroupSize)
		for len(roster) < loadGroupSize {
			h := rng.Intn(opts.Hosts)
			if !seen[h] {
				seen[h] = true
				roster = append(roster, h)
			}
		}
		out = append(out, loadArrival{
			at:      at,
			life:    eventsim.Time(rng.ExpFloat64() * float64(loadLifetimeMean)),
			id:      id,
			pri:     pri,
			root:    roster[0],
			members: roster[1:],
		})
		id++
	}
}

// hotSessionID tags the flash cell's crowd target; far above the
// arrival ID range.
const hotSessionID = sched.SessionID(1 << 30)

func loadRun(idx int, cell string, opts LoadOptions) (LoadRow, error) {
	start := time.Now()
	// The static world is a pure function of the seed, so all cells
	// price the same pool: the latency metric, then degree bounds from
	// the same stream.
	wr := rand.New(rand.NewSource(opts.Seed + 2))
	lat := synthLatency(wr, opts.Hosts)
	degrees := alm.PaperDegrees(opts.Hosts, wr)
	c := newServiceCell(opts.Seed, idx, lat, degrees, sched.ServiceConfig{
		// The damper is sized to the pool, as an operator would:
		// score-driven market planning preempts a helper or two per
		// high-class admission in normal operation, so the rate floor
		// is well above ArrivalRate and the stock 8/s bucket would
		// throttle planning itself, not just storms.
		PreemptRate:  16 * opts.ArrivalRate,
		PreemptBurst: 32 * opts.ArrivalRate,
	}, opts.Registry)
	sv := c.sv
	row := LoadRow{Cell: cell}

	// --- arrivals and departures ---
	arng := rosterRNG(opts.Seed, idx)
	for _, a := range genLoadArrivals(cell, arng, opts) {
		c.submitAt(a.at, func() *sched.Session {
			if c.crashed(a.root) {
				return nil // the would-be source is down; the session never forms
			}
			members := make([]int, 0, len(a.members))
			for _, m := range a.members {
				if !c.crashed(m) {
					members = append(members, m)
				}
			}
			if len(members) == 0 {
				return nil
			}
			return &sched.Session{ID: a.id, Priority: a.pri, Root: a.root, Members: members}
		})
		c.engine.At(a.at+a.life, func() { sv.EndSession(a.id) })
	}

	// --- flash crowd (flash cell only) ---
	if cell == "flash" {
		perm := arng.Perm(opts.Hosts)
		hot := &sched.Session{
			ID:       hotSessionID,
			Priority: 1,
			Root:     perm[0],
			Members:  append([]int(nil), perm[1:loadGroupSize]...),
		}
		crowd := perm[loadGroupSize : loadGroupSize+loadFlashJoins(opts.Hosts)]
		flashAt := opts.Window / 2
		hotAt := flashAt - 30*eventsim.Second
		if hotAt < 0 {
			hotAt = 0
		}
		c.submitAt(hotAt, func() *sched.Session {
			if c.crashed(hot.Root) {
				return nil
			}
			return hot
		})
		c.net.Install(faultnet.FlashCrowd(flashAt, len(crowd), loadFlashWindow, func(i int, _ *faultnet.Net) {
			h := crowd[i]
			if c.crashed(h) {
				return
			}
			// AddMember fails when the hot session never formed or was
			// shed; the crowd then has nothing to join.
			if err := sv.Scheduler().AddMember(hotSessionID, h); err == nil {
				row.FlashJoins++
			}
		}))
	}

	// --- churn over the whole pool, ticks, sweeps ---
	c.wireChurn(loadDetectDelay, nil)
	everyone := make([]int, opts.Hosts)
	for h := range everyone {
		everyone[h] = h
	}
	c.churn(churnRNG(opts.Seed, idx), loadCrashRate, 0, opts.Window, everyone, loadRestartDelay)
	c.tickUntil(opts.Window)
	c.sweepUntil(opts.Window, func() {
		for _, s := range sv.Scheduler().Sessions() {
			if s.Replans > row.MaxSessionReplans {
				row.MaxSessionReplans = s.Replans
			}
		}
	})

	if err := c.run(opts.Window + eventsim.Second); err != nil {
		return LoadRow{}, fmt.Errorf("load %s: %w", cell, err)
	}

	// --- harvest ---
	row.Violations, row.FirstViolation = len(c.violations), c.firstViolation()
	st := sv.Stats()
	for p := 1; p <= sched.NumClasses; p++ {
		cl := st.Class[p]
		row.Submitted += cl.Submitted
		row.Admitted += cl.Admitted
		row.Rejected += cl.Rejected
		row.ShedDeadline += cl.ShedDeadline
		row.ShedOverload += cl.ShedOverload
		row.ShedBudget += cl.ShedBudget
		row.RootDied += cl.RootDied
		row.SLO[p] = cl.SLOCompliance()
	}
	row.PeakLive = st.PeakLive
	row.EndLive = sv.LiveSessions()
	row.Plans = st.Plans
	row.PlanFailures = st.PlanFailures
	row.PreemptDeferred = st.PreemptDeferred
	tot := sv.Scheduler().Totals()
	row.Replans = tot.Replans
	row.Preemptions = tot.Preemptions
	row.Crashes = int(c.net.Counters().Crashes)
	lats := sv.AdmitLatencies()
	row.AdmitP50MS = stats.Percentile(lats, 50)
	row.AdmitP99MS = stats.Percentile(lats, 99)
	if opts.Bench {
		wall := time.Since(start)
		row.BenchWallMS = float64(wall.Milliseconds())
		if s := wall.Seconds(); s > 0 {
			row.BenchPlansPerSec = float64(row.Plans) / s
		}
	}
	return row, nil
}

// Tables renders the sustained-load study.
func (r *LoadResult) Tables() []Table {
	funnel := Table{
		Title: "Load: control plane under sustained arrivals, churn and overload",
		Columns: []string{
			"cell", "submitted", "admitted", "rejected", "shed dl", "shed ovl", "shed budget",
			"root died", "peak live", "end live", "plans", "plans/vs", "fail", "p50 ms", "p99 ms", "violations",
		},
		Note: fmt.Sprintf("%.0f-minute window, %.1f sessions/s baseline arrivals, %.0f crashes/min churn; "+
			"plans/vs = plans per virtual second; shed dl/ovl/budget = admission-deadline, overload "+
			"(lowest priority first) and retry-budget shedding; invariant sweeps (slot conservation, "+
			"ledger, tree validity) every %.0fs must stay at zero violations",
			float64(r.Opts.Window)/float64(eventsim.Minute), r.Opts.ArrivalRate,
			loadCrashRate, float64(sweepEvery)/1000),
	}
	slo := Table{
		Title: "Load: admission SLO compliance and preemption damping per priority class",
		Columns: []string{
			"cell", "P1 SLO", "P2 SLO", "P3 SLO", "preempts", "deferred",
			"replans", "max/session", "crashes", "flash joins",
		},
		Note: fmt.Sprintf("SLO = sessions first planned within the class admit deadline (2s/4s/8s) over submitted; "+
			"the flash cell pushes %d joins into one hot P1 session over %.2gs — high-priority compliance must "+
			"hold while the token bucket and hold-down keep preemptions and replans from cascading",
			loadFlashJoins(r.Opts.Hosts), float64(loadFlashWindow)/1000),
	}
	for _, row := range r.Rows {
		funnel.Rows = append(funnel.Rows, []string{
			row.Cell, d(row.Submitted), d(row.Admitted), d(row.Rejected),
			d(row.ShedDeadline), d(row.ShedOverload), d(row.ShedBudget),
			d(row.RootDied), d(row.PeakLive), d(row.EndLive),
			d(row.Plans), f1(row.PlansPerVirtualSec(r.Opts.Window)), d(row.PlanFailures),
			f1(row.AdmitP50MS), f1(row.AdmitP99MS), d(row.Violations),
		})
		slo.Rows = append(slo.Rows, []string{
			row.Cell, f3(row.SLO[1]), f3(row.SLO[2]), f3(row.SLO[3]),
			d(row.Preemptions), d(row.PreemptDeferred),
			d(row.Replans), d(row.MaxSessionReplans), d(row.Crashes), d(row.FlashJoins),
		})
	}
	return appendViolations([]Table{funnel, slo}, "Load: invariant violations", len(r.Rows), func(i int) (string, int, string) {
		return r.Rows[i].Cell, r.Rows[i].Violations, r.Rows[i].FirstViolation
	})
}

// AppendBenchJSON merges this result into an existing BENCH_load.json
// as a bench-load/v1 run labeled label; see appendBenchRun. Call only on
// a result produced with LoadOptions.Bench set; otherwise the wall-clock
// fields are zero.
func (r *LoadResult) AppendBenchJSON(existing []byte, label string) ([]byte, error) {
	rows := make([]benchObject, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = benchObject{
			{"cell", row.Cell},
			{"wall_ms", row.BenchWallMS},
			{"plans", row.Plans},
			{"plans_per_sec", row.BenchPlansPerSec},
			{"peak_live", row.PeakLive},
			{"p99_admit_ms", row.AdmitP99MS},
			{"violations", row.Violations},
		}
	}
	return appendBenchRun(existing, "bench-load/v1", label, benchObject{
		{"seed", r.Opts.Seed}, {"window_ms", float64(r.Opts.Window)}, {"hosts", r.Opts.Hosts},
	}, rows, nil)
}
