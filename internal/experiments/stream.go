package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"p2ppool/internal/alm"
	"p2ppool/internal/bandwidth"
	"p2ppool/internal/dataplane"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/netmodel"
	"p2ppool/internal/obs"
	"p2ppool/internal/par"
	"p2ppool/internal/sched"
)

// StreamOptions parameterizes the streaming study: chunk-level media
// delivery over scheduler-planned trees, with access-link contention
// from the netmodel capacity mixture, a bitrate ladder sweep, live vs
// VoD playout buffers, churn on/off, and mesh-pull recovery. Delivered
// bitrate is reported against the data-driven capacity upper bound of
// Chakareski et al. computed over each session's members — helpers
// recruited from the surrounding pool add uplink the bound does not
// see, so beating it measures the resource pool's contribution.
type StreamOptions struct {
	// Hosts is the pool size; sessions and helpers draw from it.
	Hosts int
	// Sessions is how many concurrent streaming sessions run.
	Sessions int
	// GroupSize is each session's size including the source.
	GroupSize int
	// Chunks is the stream length in chunks.
	Chunks int
	// Rungs is the bitrate ladder in kbps; every cell runs every rung.
	Rungs []float64
	// Cells selects the scenario cells; defaults to all four:
	// "live" (3 s playout buffer), "live-churn" (same plus member
	// churn), "vod" (15 s buffer), "vod-churn".
	Cells []string
	// Leafset is the estimation leafset size for the Section 4.2
	// bandwidth estimates that drive planning degrees.
	Leafset int
	// CrashRate is the churn intensity in crashes per virtual minute
	// (churn cells only), drawn over session members (crashing idle
	// pool hosts exercises nothing). RestartDelay is the downtime.
	CrashRate    float64
	RestartDelay eventsim.Time
	Seed         int64
	// Workers bounds the parallelism; <= 0 means runtime.NumCPU(). The
	// output is identical for any worker count.
	Workers int
	// Bench enables wall-clock measurement (runs then execute
	// sequentially so the readings are attributable).
	Bench bool
	// Registry, when set, instruments every run's service, fault layer
	// and data plane, and the runs then execute sequentially: a
	// registry is single-threaded.
	Registry *obs.Registry
}

func (o StreamOptions) withDefaults() StreamOptions {
	if o.Hosts <= 0 {
		o.Hosts = 8000
	}
	if o.Sessions <= 0 {
		o.Sessions = 6
	}
	if o.GroupSize <= 0 {
		o.GroupSize = 100
	}
	if o.Chunks <= 0 {
		o.Chunks = 45
	}
	if len(o.Rungs) == 0 {
		// Against the Gnutella mixture's ~1.1 Mbps mean member uplink:
		// comfortable, near-capacity, and above-capacity rungs.
		o.Rungs = []float64{250, 600, 1200}
	}
	if len(o.Cells) == 0 {
		o.Cells = []string{"live", "live-churn", "vod", "vod-churn"}
	}
	if o.Leafset <= 0 {
		o.Leafset = 16
	}
	if o.CrashRate <= 0 {
		o.CrashRate = 24
	}
	if o.RestartDelay <= 0 {
		o.RestartDelay = 10 * eventsim.Second
	}
	return o
}

// streamChurn reports whether a cell runs member churn.
func streamChurn(cell string) bool {
	return cell == "live-churn" || cell == "vod-churn"
}

// playoutVoD is the per-chunk deadline after emission for on-demand
// content: five times the live buffer, the slack that lets late and
// pulled chunks still count.
const playoutVoD = 15 * eventsim.Second

// streamPlayout is the cell's per-chunk playout deadline.
func streamPlayout(cell string) eventsim.Time {
	if cell == "vod" || cell == "vod-churn" {
		return playoutVoD
	}
	return playoutLive
}

// StreamRow is one (cell, rung) run's outcome. Everything except the
// Bench field is a pure function of the seed (worker-independent).
type StreamRow struct {
	Cell     string
	RungKbps float64
	// Planned counts sessions that obtained a tree at least once.
	Planned int
	// Delivery over every expected (member, chunk) pair at the rung,
	// plus the control plane and sweeps.
	mediaRow
	// BoundKbps is the mean member-only capacity bound across sessions;
	// PullSavedFrac is the fraction of tree misses mesh-pull recovered
	// in time.
	BoundKbps     float64
	PullSavedFrac float64
	// SourceOffload is 1 - source bytes / total bytes across sessions.
	SourceOffload float64
}

// StreamResult is the streaming study.
type StreamResult struct {
	Opts StreamOptions
	Rows []StreamRow
}

// ViolationCount returns the total invariant violations across runs —
// the study passes iff it is zero.
func (r *StreamResult) ViolationCount() int {
	n := 0
	for _, row := range r.Rows {
		n += row.Violations
	}
	return n
}

// Row returns the (cell, rung) row, or nil.
func (r *StreamResult) Row(cell string, rung float64) *StreamRow {
	for i := range r.Rows {
		if r.Rows[i].Cell == cell && r.Rows[i].RungKbps == rung {
			return &r.Rows[i]
		}
	}
	return nil
}

// Stream runs the streaming study: every cell at every ladder rung,
// each run an independent seeded world over one capacity world.
func Stream(opts StreamOptions) (*StreamResult, error) {
	opts = opts.withDefaults()
	if opts.Sessions*opts.GroupSize > opts.Hosts {
		return nil, fmt.Errorf("experiments: %d sessions x %d members exceed %d hosts",
			opts.Sessions, opts.GroupSize, opts.Hosts)
	}
	lat, model, est, err := capacityWorld(opts.Seed, opts.Hosts, opts.Leafset)
	if err != nil {
		return nil, err
	}
	type runSpec struct {
		cell string
		rung float64
	}
	var specs []runSpec
	for _, cell := range opts.Cells {
		for _, rung := range opts.Rungs {
			specs = append(specs, runSpec{cell, rung})
		}
	}
	workers := opts.Workers
	if opts.Bench || opts.Registry != nil {
		// Sequential runs keep wall-clock readings attributable and
		// write the registry from one goroutine.
		workers = 1
	}
	rows, err := par.MapErr(workers, len(specs), func(i int) (StreamRow, error) {
		return streamRun(i, specs[i].cell, specs[i].rung, opts, lat, model, est)
	})
	if err != nil {
		return nil, err
	}
	return &StreamResult{Opts: opts, Rows: rows}, nil
}

// streamDegrees converts uplink estimates into per-host degree bounds
// for one ladder rung.
func streamDegrees(est []bandwidth.Estimates, rungKbps float64) []int {
	out := make([]int, len(est))
	for i, e := range est {
		out[i] = uplinkDegree(e.Up, rungKbps)
	}
	return out
}

// genStreamSessions pre-draws disjoint rosters and picks each session's
// source as the member with the best estimated uplink (the planner's
// knowledge, not ground truth). Subscribers are drawn only from hosts
// whose estimated downlink carries the top ladder rung — the client
// capability check every adaptive-streaming player performs before
// requesting a rendition; a modem host joining a 1.2 Mbps stream would
// only measure its own access link, not the delivery system.
func genStreamSessions(rng *rand.Rand, est []bandwidth.Estimates, opts StreamOptions) ([]mediaSession, error) {
	top := 0.0
	for _, r := range opts.Rungs {
		if r > top {
			top = r
		}
	}
	var eligible []int
	for h := 0; h < opts.Hosts; h++ {
		if est[h].Down >= top {
			eligible = append(eligible, h)
		}
	}
	if opts.Sessions*opts.GroupSize > len(eligible) {
		return nil, fmt.Errorf("experiments: %d sessions x %d members need more than the %d hosts whose downlink carries %.0f kbps",
			opts.Sessions, opts.GroupSize, len(eligible), top)
	}
	perm := rng.Perm(len(eligible))
	out := make([]mediaSession, 0, opts.Sessions)
	for s := 0; s < opts.Sessions; s++ {
		roster := make([]int, opts.GroupSize)
		for i := range roster {
			roster[i] = eligible[perm[s*opts.GroupSize+i]]
		}
		best := 0
		for i, h := range roster {
			if est[h].Up > est[roster[best]].Up {
				best = i
			}
		}
		members := make([]int, 0, len(roster)-1)
		for i, h := range roster {
			if i != best {
				members = append(members, h)
			}
		}
		out = append(out, mediaSession{
			id:      sched.SessionID(s + 1),
			pri:     s%sched.NumClasses + 1,
			root:    roster[best],
			members: members,
		})
	}
	return out, nil
}

func streamRun(idx int, cell string, rung float64, opts StreamOptions, lat alm.LatencyFunc, model *netmodel.Model, est []bandwidth.Estimates) (StreamRow, error) {
	start := time.Now()
	c := newServiceCell(opts.Seed, idx, lat, streamDegrees(est, rung), sched.ServiceConfig{
		Sched: sched.Config{HelperMinDegree: 2},
	}, opts.Registry)
	sessions, err := genStreamSessions(rosterRNG(opts.Seed, idx), est, opts)
	if err != nil {
		return StreamRow{}, err
	}
	media := mediaRun{
		sessions: sessions,
		model:    model,
		pump:     dataplane.Config{BitrateKbps: rung, Playout: streamPlayout(cell), Chunks: opts.Chunks},
		seedBase: opts.Seed*10000 + int64(idx)*100,
	}
	if streamChurn(cell) {
		// Churn hits streaming members only — crashing an idle pool
		// host exercises nothing. Sources are spared: a dead source is
		// a different study (the whole stream just ends).
		for _, s := range sessions {
			media.churnPool = append(media.churnPool, s.members...)
		}
		media.churn, media.crashRate, media.restartDelay = churnRNG(opts.Seed, idx), opts.CrashRate, opts.RestartDelay
	}
	stats, err := c.runMedia(media)
	if err != nil {
		return StreamRow{}, fmt.Errorf("stream %s@%.0f: %w", cell, rung, err)
	}

	row := StreamRow{Cell: cell, RungKbps: rung}
	var bounds float64
	var srcBytes, totBytes uint64
	for i, s := range sessions {
		if live := c.sv.Scheduler().Session(s.id); live != nil && live.Tree != nil {
			row.Planned++
		}
		ups := make([]float64, len(s.members))
		for j, m := range s.members {
			ups[j] = model.Up(m)
		}
		bounds += dataplane.CapacityBound(model.Up(s.root), ups)
		st := stats[i][0]
		row.add(st)
		srcBytes += st.SourceTxBytes
		totBytes += st.TotalTxBytes
	}
	row.BoundKbps = bounds / float64(len(sessions))
	if row.TreeMisses > 0 {
		row.PullSavedFrac = float64(row.PullRecovered) / float64(row.TreeMisses)
	}
	if totBytes > 0 {
		row.SourceOffload = 1 - float64(srcBytes)/float64(totBytes)
	}
	row.harvest(c, rung, start, opts.Bench)
	return row, nil
}

// Tables renders the streaming study.
func (r *StreamResult) Tables() []Table {
	delivered := Table{
		Title: "Streaming: delivered bitrate vs the data-driven capacity bound",
		Columns: []string{
			"cell", "rung kbps", "bound kbps", "delivered kbps", "miss rate",
			"offload", "planned", "crashes", "repairs",
		},
		Note: fmt.Sprintf("%d sessions x %d members over %d hosts, %d chunks of %.1fs; bound = "+
			"min(up_src, (up_src + sum up_i)/n) over members only (Chakareski et al.) — helpers from "+
			"the pool add uplink the bound does not see, so delivered above bound is the pool's "+
			"contribution; offload = 1 - source bytes / total bytes",
			r.Opts.Sessions, r.Opts.GroupSize, r.Opts.Hosts, r.Opts.Chunks,
			float64(chunkDur)/1000),
	}
	attrib := Table{
		Title: "Streaming: deadline-miss attribution (tree miss partition)",
		Columns: []string{
			"cell", "rung kbps", "expected", "tree ok", "tree miss",
			"pull-rec %", "late %", "lost %", "pulls", "dups",
		},
		Note: fmt.Sprintf("every expected (member, chunk) pair lands in exactly one bucket; "+
			"pull-rec/late/lost partition the tree misses (sum 100%%); live cells run a %.0fs "+
			"playout buffer, vod %.0fs; churn cells crash %.0f members/min (restart after %.0fs, "+
			"detected in %.1fs) — mesh-pull (%d seeded neighbors) recovers what the tree drops",
			float64(playoutLive)/1000, float64(playoutVoD)/1000,
			r.Opts.CrashRate, float64(r.Opts.RestartDelay)/1000,
			float64(mediaDetectDelay)/1000, pullNeighbors),
	}
	pct := func(part, whole int) string {
		if whole == 0 {
			return f1(0)
		}
		return f1(100 * float64(part) / float64(whole))
	}
	for _, row := range r.Rows {
		delivered.Rows = append(delivered.Rows, []string{
			row.Cell, f1(row.RungKbps), f1(row.BoundKbps), f1(row.DeliveredKbps),
			f3(row.MissRate), f3(row.SourceOffload), d(row.Planned),
			d(row.Crashes), d(row.Repairs),
		})
		attrib.Rows = append(attrib.Rows, []string{
			row.Cell, f1(row.RungKbps), d(row.Expected), d(row.OnTimeTree), d(row.TreeMisses),
			pct(row.PullRecovered, row.TreeMisses), pct(row.Late, row.TreeMisses),
			pct(row.Lost, row.TreeMisses), d(row.PullsSent), d(row.Duplicates),
		})
	}
	return appendViolations([]Table{delivered, attrib}, "Streaming: invariant violations", len(r.Rows), func(i int) (string, int, string) {
		row := r.Rows[i]
		return fmt.Sprintf("%s@%.0f", row.Cell, row.RungKbps), row.Violations, row.FirstViolation
	})
}

// AppendBenchJSON merges this result into an existing BENCH_stream.json
// as a bench-stream/v1 run labeled label; see appendBenchRun. Call on a
// result produced with StreamOptions.Bench set for wall-clock fields.
func (r *StreamResult) AppendBenchJSON(existing []byte, label string) ([]byte, error) {
	rows := make([]benchObject, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = benchObject{
			{"cell", row.Cell},
			{"rung_kbps", row.RungKbps},
			{"bound_kbps", row.BoundKbps},
			{"delivered_kbps", row.DeliveredKbps},
			{"miss_rate", row.MissRate},
			{"pull_saved", row.PullSavedFrac},
			{"offload", row.SourceOffload},
			{"wall_ms", row.BenchWallMS},
		}
	}
	return appendBenchRun(existing, "bench-stream/v1", label, benchObject{
		{"seed", r.Opts.Seed}, {"hosts", r.Opts.Hosts}, {"sessions", r.Opts.Sessions}, {"chunks", r.Opts.Chunks},
	}, rows, nil)
}
