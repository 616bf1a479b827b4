package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"p2ppool/internal/alm"
	"p2ppool/internal/dataplane"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/netmodel"
	"p2ppool/internal/par"
	"p2ppool/internal/sched"
)

// ConfOptions parameterizes the conferencing study: M-member sessions
// in which every member is a source, so the scheduler plans M trees per
// session against one shared per-host capacity ledger and the data
// plane pumps M concurrent chunk sequences through the same access
// links. The member-only capacity bound becomes much tighter than in
// single-source streaming — M sources share the roster's total uplink,
// so each can count on only sum(up_i) / (M*(M-1)) — which is exactly
// where pool helpers earn their keep. Market cells add single-source
// broadcasts competing for the same hosts; churn cells crash conference
// members mid-call, and when they restart Scheduler.Rejoin returns each
// to the roster and the sources its session lost it from.
type ConfOptions struct {
	// Hosts is the pool size; conferences, broadcasts and helpers all
	// draw from it.
	Hosts int
	// Conferences is how many concurrent conferences run; ConfSize is
	// each conference's size including the root, and every member is a
	// source.
	Conferences int
	ConfSize    int
	// Broadcasts / BroadcastSize shape the competing single-source
	// sessions that market cells submit at the lowest priority class.
	Broadcasts    int
	BroadcastSize int
	// Chunks is each source's stream length in chunks.
	Chunks int
	// Cells selects the scenario cells; defaults to all four: "solo"
	// (conferences only), "solo-churn", "market" (conferences plus
	// competing broadcasts), "market-churn".
	Cells []string
	// Leafset is the estimation leafset size for the Section 4.2
	// bandwidth estimates that drive planning degrees.
	Leafset int
	// CrashRate is the churn intensity in crashes per virtual minute
	// (churn cells only), drawn over non-root conference members.
	// RestartDelay is the downtime.
	CrashRate    float64
	RestartDelay eventsim.Time
	Seed         int64
	// Workers bounds the parallelism; <= 0 means runtime.NumCPU(). The
	// output is identical for any worker count.
	Workers int
	// Bench enables wall-clock measurement (runs then execute
	// sequentially so the readings are attributable).
	Bench bool
}

func (o ConfOptions) withDefaults() ConfOptions {
	if o.Hosts <= 0 {
		o.Hosts = 8000
	}
	if o.Conferences <= 0 {
		o.Conferences = 4
	}
	if o.ConfSize <= 0 {
		o.ConfSize = 6
	}
	if o.Broadcasts <= 0 {
		o.Broadcasts = 3
	}
	if o.BroadcastSize <= 0 {
		o.BroadcastSize = 40
	}
	if o.Chunks <= 0 {
		o.Chunks = 30
	}
	if len(o.Cells) == 0 {
		o.Cells = []string{"solo", "solo-churn", "market", "market-churn"}
	}
	if o.Leafset <= 0 {
		o.Leafset = 16
	}
	if o.CrashRate <= 0 {
		o.CrashRate = 18
	}
	if o.RestartDelay <= 0 {
		o.RestartDelay = 8 * eventsim.Second
	}
	return o
}

// confSourceKbps is every source's bitrate — one fixed rung: a
// conference mixes voices, it does not ladder-switch. Against the
// Gnutella mixture's ~1.1 Mbps mean member uplink a 6-way conference's
// shared member-only bound is ~1100/(6-1) = 220 kbps per source: 250
// sits just above it, so beating the bound requires uplink the roster
// does not have — helpers.
const confSourceKbps float64 = 250

// confChurn reports whether a cell runs member churn; confMarket
// whether it submits competing broadcasts.
func confChurn(cell string) bool  { return cell == "solo-churn" || cell == "market-churn" }
func confMarket(cell string) bool { return cell == "market" || cell == "market-churn" }

// ConfRow is one cell's outcome. Everything except the Bench field is a
// pure function of the seed (worker-independent).
type ConfRow struct {
	Cell string
	// ConfTrees counts planned (session, source) trees at harvest;
	// Sources is how many were submitted.
	Sources   int
	ConfTrees int
	// Delivery over the conferences' expected (member, chunk) pairs,
	// summed across their source pumps, plus the control plane and
	// sweeps.
	mediaRow
	// MinSrcKbps / MaxSrcKbps bracket the per-source delivered rates (a
	// conference is only as good as its worst voice).
	MinSrcKbps float64
	MaxSrcKbps float64
	// SharedBoundKbps is the conference-mean shared member-only bound
	// sum(up_i) / (M*(M-1)): M sources each feeding M-1 receivers from
	// the roster's own uplink. IsoBoundKbps is the mean single-source
	// bound (Chakareski et al.) the same source would see with the
	// whole roster uplink to itself — the gap between the two is what
	// multi-sourcing costs.
	SharedBoundKbps float64
	IsoBoundKbps    float64
	// MaxHeightMS / MeanHeightMS summarize per-source-tree latency
	// bounds (planning metric) across all planned conference trees.
	MaxHeightMS  float64
	MeanHeightMS float64
	// Helpers sums distinct recruited helpers across conferences.
	Helpers int
	// Broadcast side (market cells only).
	BcastPlanned       int
	BcastDeliveredKbps float64
	BcastMissRate      float64
	// Rejoins counts restarts Scheduler.Rejoin took back.
	Rejoins int
}

// ConfResult is the conferencing study.
type ConfResult struct {
	Opts ConfOptions
	Rows []ConfRow
}

// Row returns the named cell's row (nil when absent).
func (r *ConfResult) Row(cell string) *ConfRow {
	for i := range r.Rows {
		if r.Rows[i].Cell == cell {
			return &r.Rows[i]
		}
	}
	return nil
}

// ViolationCount returns the total invariant violations across cells —
// the study passes iff it is zero.
func (r *ConfResult) ViolationCount() int {
	n := 0
	for _, row := range r.Rows {
		n += row.Violations
	}
	return n
}

// Conf runs the conferencing study: every cell an independent seeded
// world over one capacity world.
func Conf(opts ConfOptions) (*ConfResult, error) {
	opts = opts.withDefaults()
	if opts.ConfSize < 2 {
		return nil, fmt.Errorf("experiments: conference size %d < 2", opts.ConfSize)
	}
	if opts.Conferences*opts.ConfSize > opts.Hosts {
		return nil, fmt.Errorf("experiments: %d conferences x %d members exceed %d hosts",
			opts.Conferences, opts.ConfSize, opts.Hosts)
	}
	lat, model, est, err := capacityWorld(opts.Seed, opts.Hosts, opts.Leafset)
	if err != nil {
		return nil, err
	}
	estUp := make([]float64, opts.Hosts)
	estDown := make([]float64, opts.Hosts)
	for h := range estUp {
		estUp[h] = est[h].Up
		estDown[h] = est[h].Down
	}
	workers := opts.Workers
	if opts.Bench {
		workers = 1
	}
	rows, err := par.MapErr(workers, len(opts.Cells), func(i int) (ConfRow, error) {
		return confRun(i, opts.Cells[i], opts, lat, model, estUp, estDown)
	})
	if err != nil {
		return nil, err
	}
	return &ConfResult{Opts: opts, Rows: rows}, nil
}

// confDegrees converts uplink estimates into per-host degree bounds at
// the conference rung. Pool hosts get the streaming rule — uplink over
// 1.3x the rung plus one parent-link slot, clamped to [1, 16] — so
// helper recruitment only sees hosts whose uplink genuinely carries
// their slot count. Conference members get ConfSize-2 slots on top,
// because a member of an M-way conference spends M-1 slots on parent
// links alone (one per fellow source's tree; the base rule's +1 covers
// the first) before it forwards a single chunk. Granting that headroom
// to everyone would be wrong twice over: thin-uplink pool hosts would
// pass the helper degree filter and melt as relays, and members would
// be packed with child flows their uplink cannot carry. The extra
// member slots are planning headroom only; the contention physics
// still runs on measured capacity, so provisioning cannot manufacture
// bandwidth.
func confDegrees(est []float64, member map[int]bool, m int, rungKbps float64) []int {
	out := make([]int, len(est))
	for i, up := range est {
		out[i] = uplinkDegree(up, rungKbps)
		if member[i] {
			out[i] += m - 2
		}
	}
	return out
}

// conference reports whether s is a conference (every member a
// source) rather than a competing single-source broadcast.
func (s mediaSession) conference() bool { return len(s.sources) > 0 }

// genConfSessions pre-draws disjoint rosters. Conference members come
// from the consumer access band — the client profile conferencing
// targets: estimated downlink carrying the ConfSize-1 concurrent
// incoming voices with the planner's own 1.3x provisioning headroom (a
// member receives every other voice at once), and uplink in [1.3, 4] x
// the rung — enough to source its own stream once, nowhere near enough
// to fan it out to M-1 receivers. Uplink-rich backbone hosts are
// excluded from conference rosters on purpose — they stay in the pool,
// where the scheduler recruits them as helpers, which is the regime
// the study measures: a roster whose own uplink cannot carry the call,
// made whole by the resource pool. Broadcast audiences face no such
// architecture argument (a broadcast member receives one stream and an
// uplink-rich member is simply a good relay), so they draw from every
// host whose downlink carries a single rung with headroom. Each
// roster's best-estimated-uplink member becomes the root; in
// conferences every other member is promoted to a source.
func genConfSessions(rng *rand.Rand, estUp, estDown []float64, opts ConfOptions) ([]mediaSession, error) {
	need := 1.3 * float64(opts.ConfSize-1) * confSourceKbps
	upMin, upMax := 1.3*confSourceKbps, 4*confSourceKbps
	var confEligible []int
	for h := range estDown {
		if estDown[h] >= need && estUp[h] >= upMin && estUp[h] <= upMax {
			confEligible = append(confEligible, h)
		}
	}
	if n := opts.Conferences * opts.ConfSize; n > len(confEligible) {
		return nil, fmt.Errorf("experiments: %d conference members need more than the %d consumer-band hosts (downlink >= %.0f kbps, uplink in [%.0f, %.0f])",
			n, len(confEligible), need, upMin, upMax)
	}
	used := make(map[int]bool)
	draw := func(pool []int, perm []int, next *int, n int) []int {
		roster := make([]int, n)
		for i := range roster {
			roster[i] = pool[perm[*next]]
			used[roster[i]] = true
			*next++
		}
		best := 0
		for i, h := range roster {
			if estUp[h] > estUp[roster[best]] {
				best = i
			}
		}
		roster[0], roster[best] = roster[best], roster[0]
		return roster
	}
	confPerm := rng.Perm(len(confEligible))
	confNext := 0
	var out []mediaSession
	for c := 0; c < opts.Conferences; c++ {
		roster := draw(confEligible, confPerm, &confNext, opts.ConfSize)
		out = append(out, mediaSession{
			id:      sched.SessionID(c + 1),
			pri:     c%2 + 1,
			root:    roster[0],
			members: append([]int(nil), roster[1:]...),
			sources: append([]int(nil), roster[1:]...),
		})
	}
	var bcastEligible []int
	for h := range estDown {
		if estDown[h] >= 1.3*confSourceKbps && !used[h] {
			bcastEligible = append(bcastEligible, h)
		}
	}
	if n := opts.Broadcasts * opts.BroadcastSize; n > len(bcastEligible) {
		return nil, fmt.Errorf("experiments: %d broadcast members need more than the %d hosts whose downlink carries %.0f kbps",
			n, len(bcastEligible), 1.3*confSourceKbps)
	}
	bcastPerm := rng.Perm(len(bcastEligible))
	bcastNext := 0
	for b := 0; b < opts.Broadcasts; b++ {
		roster := draw(bcastEligible, bcastPerm, &bcastNext, opts.BroadcastSize)
		out = append(out, mediaSession{
			id:      sched.SessionID(100 + b + 1),
			pri:     sched.NumClasses,
			root:    roster[0],
			members: append([]int(nil), roster[1:]...),
		})
	}
	return out, nil
}

func confRun(idx int, cell string, opts ConfOptions, lat alm.LatencyFunc, model *netmodel.Model, estUp, estDown []float64) (ConfRow, error) {
	start := time.Now()
	all, err := genConfSessions(rosterRNG(opts.Seed, idx), estUp, estDown, opts)
	if err != nil {
		return ConfRow{}, err
	}
	member := make(map[int]bool)
	for _, s := range all {
		if s.conference() {
			member[s.root] = true
			for _, m := range s.members {
				member[m] = true
			}
		}
	}
	// Helper recruitment keeps the paper's min-degree-4 rule (the sched
	// default, not the stream study's relaxed 2): conference trees hang
	// almost entirely off helpers — members spend nearly all their slots
	// on parent links — so a degree-2 helper saturates the moment it
	// takes a parent edge and one child, stranding the rest of the
	// roster.
	c := newServiceCell(opts.Seed, idx, lat, confDegrees(estUp, member, opts.ConfSize, confSourceKbps),
		sched.ServiceConfig{}, nil)
	row := ConfRow{Cell: cell}
	media := mediaRun{
		model:    model,
		pump:     dataplane.Config{BitrateKbps: confSourceKbps, Playout: playoutLive, Chunks: opts.Chunks},
		seedBase: opts.Seed*100000 + int64(idx)*1000,
		// A restarted conference member dials back in while the call
		// lasts: Rejoin returns it to the roster and the sources of the
		// live session its detected crash stripped it from. An
		// undetected crash stripped nothing, and a session that is gone
		// or not yet live takes nobody back.
		restarted: func(sc *sched.Scheduler, h int) {
			if len(sc.Rejoin(h)) > 0 {
				row.Rejoins++
			}
		},
	}
	for _, s := range all {
		if s.conference() || confMarket(cell) {
			media.sessions = append(media.sessions, s)
		}
	}
	if confChurn(cell) {
		// The churn pool is the non-root conference members: every
		// victim is a live source, so each crash tears one tree down and
		// bends M-1 others. Roots are spared (a dead root ends the
		// session — a different study), as are broadcast members (their
		// churn is the stream study's subject).
		for _, s := range media.sessions {
			if s.conference() {
				media.churnPool = append(media.churnPool, s.members...)
			}
		}
		media.churn, media.crashRate, media.restartDelay = churnRNG(opts.Seed, idx), opts.CrashRate, opts.RestartDelay
	}
	stats, err := c.runMedia(media)
	if err != nil {
		return ConfRow{}, fmt.Errorf("conf %s: %w", cell, err)
	}

	var bcast mediaRow
	var sharedSum, isoSum, heightSum float64
	var sharedN, isoN, heightN int
	for i, s := range media.sessions {
		live := c.sv.Scheduler().Session(s.id)
		if !s.conference() {
			if live != nil && live.Tree != nil {
				row.BcastPlanned++
			}
			bcast.add(stats[i][0])
			continue
		}
		roster := append([]int{s.root}, s.members...)
		var upSum float64
		for _, m := range roster {
			upSum += model.Up(m)
		}
		m := len(roster)
		sharedSum += upSum / float64(m*(m-1))
		sharedN++
		for _, src := range roster {
			ups := make([]float64, 0, m-1)
			for _, o := range roster {
				if o != src {
					ups = append(ups, model.Up(o))
				}
			}
			isoSum += dataplane.CapacityBound(model.Up(src), ups)
			isoN++
		}
		for _, st := range stats[i] {
			row.Sources++
			row.add(st)
			if st.Expected > 0 {
				src := confSourceKbps * float64(st.OnTimeTree+st.PullRecovered) / float64(st.Expected)
				if row.MinSrcKbps == 0 || src < row.MinSrcKbps {
					row.MinSrcKbps = src
				}
				if src > row.MaxSrcKbps {
					row.MaxSrcKbps = src
				}
			}
		}
		if live == nil {
			continue
		}
		row.Helpers += live.HelperCount()
		live.EachTree(func(_ int, t *alm.Tree) bool {
			if t == nil {
				return true
			}
			row.ConfTrees++
			h := t.MaxHeight(lat)
			heightSum += h
			heightN++
			if h > row.MaxHeightMS {
				row.MaxHeightMS = h
			}
			return true
		})
	}
	if sharedN > 0 {
		row.SharedBoundKbps = sharedSum / float64(sharedN)
	}
	if isoN > 0 {
		row.IsoBoundKbps = isoSum / float64(isoN)
	}
	if heightN > 0 {
		row.MeanHeightMS = heightSum / float64(heightN)
	}
	bcast.rate(confSourceKbps)
	row.BcastDeliveredKbps, row.BcastMissRate = bcast.DeliveredKbps, bcast.MissRate
	row.harvest(c, confSourceKbps, start, opts.Bench)
	return row, nil
}

// Tables renders the conferencing study.
func (r *ConfResult) Tables() []Table {
	delivery := Table{
		Title: "Conferencing: per-source delivery vs the shared member-only bound",
		Columns: []string{
			"cell", "src kbps", "shared bound", "iso bound", "delivered",
			"min src", "max src", "miss rate", "max height ms", "trees", "helpers",
		},
		Note: fmt.Sprintf("%d conferences of %d members over %d hosts, every member a source at %.0f kbps "+
			"(%d chunks of %.1fs, %.0fs playout); shared bound = sum(up_i)/(M*(M-1)) — M sources split the "+
			"roster's uplink M*(M-1) ways, vs the iso bound the same source would see alone (Chakareski et "+
			"al.); delivered above the shared bound is uplink recruited from the pool; min/max src bracket "+
			"per-source delivered rates; max height is the worst planned root-to-member latency bound",
			r.Opts.Conferences, r.Opts.ConfSize, r.Opts.Hosts, confSourceKbps,
			r.Opts.Chunks, float64(chunkDur)/1000, float64(playoutLive)/1000),
	}
	market := Table{
		Title: "Conferencing: market competition, churn recovery and ledger audit",
		Columns: []string{
			"cell", "expected", "tree ok", "pull-rec", "late", "lost",
			"bcast kbps", "bcast miss", "crashes", "rejoins", "repairs", "replans", "violations",
		},
		Note: fmt.Sprintf("market cells add %d single-source broadcasts of %d members at the lowest "+
			"priority class, competing for the same hosts; churn cells crash %.0f conference members/min "+
			"(restart after %.0fs, detected in %.1fs) and restarts rejoin through Scheduler.Rejoin; "+
			"violations counts continuous invariant sweeps (every %.0fs) over the shared multi-source "+
			"ledger — the study passes iff the column is all zeros",
			r.Opts.Broadcasts, r.Opts.BroadcastSize, r.Opts.CrashRate,
			float64(r.Opts.RestartDelay)/1000, float64(mediaDetectDelay)/1000,
			float64(sweepEvery)/1000),
	}
	for _, row := range r.Rows {
		delivery.Rows = append(delivery.Rows, []string{
			row.Cell, f1(confSourceKbps), f1(row.SharedBoundKbps), f1(row.IsoBoundKbps),
			f1(row.DeliveredKbps), f1(row.MinSrcKbps), f1(row.MaxSrcKbps), f3(row.MissRate),
			f1(row.MaxHeightMS), d(row.ConfTrees), d(row.Helpers),
		})
		market.Rows = append(market.Rows, []string{
			row.Cell, d(row.Expected), d(row.OnTimeTree), d(row.PullRecovered), d(row.Late), d(row.Lost),
			f1(row.BcastDeliveredKbps), f3(row.BcastMissRate), d(row.Crashes), d(row.Rejoins),
			d(row.Repairs), d(row.Replans), d(row.Violations),
		})
	}
	return appendViolations([]Table{delivery, market}, "Conferencing: invariant violations", len(r.Rows), func(i int) (string, int, string) {
		return r.Rows[i].Cell, r.Rows[i].Violations, r.Rows[i].FirstViolation
	})
}

// AppendBenchJSON merges this result into an existing BENCH_conf.json
// as a bench-conf/v1 run labeled label; see appendBenchRun. Call on a
// result produced with ConfOptions.Bench set for wall-clock fields.
func (r *ConfResult) AppendBenchJSON(existing []byte, label string) ([]byte, error) {
	rows := make([]benchObject, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = benchObject{
			{"cell", row.Cell},
			{"src_kbps", confSourceKbps},
			{"shared_bound_kbps", row.SharedBoundKbps},
			{"iso_bound_kbps", row.IsoBoundKbps},
			{"delivered_kbps", row.DeliveredKbps},
			{"min_src_kbps", row.MinSrcKbps},
			{"miss_rate", row.MissRate},
			{"bcast_kbps", row.BcastDeliveredKbps},
			{"max_height_ms", row.MaxHeightMS},
			{"violations", row.Violations},
			{"wall_ms", row.BenchWallMS},
		}
	}
	return appendBenchRun(existing, "bench-conf/v1", label, benchObject{
		{"seed", r.Opts.Seed}, {"hosts", r.Opts.Hosts}, {"conferences", r.Opts.Conferences},
		{"conf_size", r.Opts.ConfSize}, {"chunks", r.Opts.Chunks},
	}, rows, nil)
}
