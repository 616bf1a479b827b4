package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"p2ppool/internal/alm"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/faultnet"
	"p2ppool/internal/invariant"
	"p2ppool/internal/par"
	"p2ppool/internal/sched"
	"p2ppool/internal/topology"
	"p2ppool/internal/transport"
)

// ChaosOptions parameterizes the self-healing ALM study: a live
// multicast session forwarding packets over its planned tree on the
// simulated network while a fault-injection layer applies continuous
// Poisson churn and a partition window.
type ChaosOptions struct {
	// Hosts is the pool size.
	Hosts int
	// GroupSize is the session size including the root.
	GroupSize int
	// Rates are the churn intensities swept, in crashes per virtual
	// minute; rate 0 is the fault-free baseline and must reproduce the
	// plain scheduler plan exactly.
	Rates []float64
	// Window is the observation window.
	Window eventsim.Time
	Seed   int64
	// Workers bounds the parallelism; <= 0 means runtime.NumCPU(). The
	// output is identical for any worker count.
	Workers int
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Hosts <= 0 {
		o.Hosts = 96
	}
	if o.GroupSize <= 0 {
		o.GroupSize = 16
	}
	if len(o.Rates) == 0 {
		o.Rates = []float64{0, 1, 3}
	}
	if o.Window <= 0 {
		o.Window = 5 * eventsim.Minute
	}
	return o
}

// ChaosRow is the outcome of one churn-rate run.
type ChaosRow struct {
	Rate        float64
	Crashes     int // node crashes injected
	TreeCrashes int // crashes that hit a node of the session tree
	Repairs     int // tree repairs completed
	Replans     int // session replans (failures + member rejoins)
	Sent        int // packets multicast by the root
	Expected    int // member deliveries expected (live members at send)
	Delivered   int // member deliveries observed
	// MeanRepairSeconds is the average crash-to-repaired time for tree
	// crashes (detection delay included).
	MeanRepairSeconds float64
	// BaselineHeight / PeakHeight bound the tree-height inflation churn
	// caused (true-latency max root-to-leaf, ms).
	BaselineHeight float64
	PeakHeight     float64
	// Drops is the total messages eaten by injected faults.
	Drops uint64
	// Loss attribution: every expected-but-undelivered member delivery
	// is classified by cause. Undelivered = CauseDead + CauseRepair +
	// CauseDrop, always — attribution covers 100% of the loss.
	Undelivered int
	// CauseDead: the member itself went down while the packet was in
	// flight (its agent could not receive).
	CauseDead int
	// CauseRepair: a forwarding ancestor on the packet's tree path was
	// down while the packet was in flight — loss during the repair
	// window between a crash and the tree healing around it.
	CauseRepair int
	// CauseDrop: residual injected message loss (link/node loss rules
	// or the partition window).
	CauseDrop int
}

// DeliveryRatio is delivered over expected member deliveries.
func (r ChaosRow) DeliveryRatio() float64 {
	if r.Expected == 0 {
		return 1
	}
	return float64(r.Delivered) / float64(r.Expected)
}

// ChaosResult is the fault-injection study.
type ChaosResult struct {
	Opts ChaosOptions
	Rows []ChaosRow
}

// chaosWorld builds the static world shared by every row of a sweep:
// the topology, the degree bounds, and the session roster. Only the
// fault schedule differs between rows, so the rate-0 row must plan
// exactly like a scheduler used outside the chaos harness on this same
// world — the baseline test rebuilds it through this function.
func chaosWorld(opts ChaosOptions) (*topology.Network, []int, *sched.Session, error) {
	net, err := topology.Generate(paperTopology(opts.Hosts, opts.Seed, 1))
	if err != nil {
		return nil, nil, nil, err
	}
	r := rand.New(rand.NewSource(opts.Seed + 2))
	degrees := alm.PaperDegrees(opts.Hosts, r)
	perm := r.Perm(opts.Hosts)
	s := &sched.Session{
		ID:       1,
		Priority: 1,
		Root:     perm[0],
		Members:  append([]int(nil), perm[1:opts.GroupSize]...),
	}
	return net, degrees, s, nil
}

// Chaos runs the fault-injection study: one live multicast session per
// churn rate, with crashes, restarts and a partition window scripted on
// the virtual clock, measuring delivery ratio, repair latency and
// tree-height inflation.
func Chaos(opts ChaosOptions) (*ChaosResult, error) {
	opts = opts.withDefaults()
	if err := checkGroupSize(opts.GroupSize, opts.Hosts); err != nil {
		return nil, err
	}
	rows, err := par.MapErr(opts.Workers, len(opts.Rates), func(i int) (ChaosRow, error) {
		return chaosRun(i, opts.Rates[i], opts)
	})
	if err != nil {
		return nil, err
	}
	return &ChaosResult{Opts: opts, Rows: rows}, nil
}

// chaosPacket is one multicast payload.
type chaosPacket struct{ Seq int }

// The timeline every row shares.
const (
	// chaosPacketInterval is the multicast send period: two packets a
	// second, so a detection gap shows up as several lost deliveries.
	chaosPacketInterval = 500 * eventsim.Millisecond
	// chaosDetectDelay models heartbeat-based failure detection (four
	// missed 1 s heartbeats): crash until the task manager replans
	// around it. It dominates repair latency.
	chaosDetectDelay = 4 * eventsim.Second
	// chaosRestartDelay is a crashed host's downtime: long past
	// detection, so every tree crash is repaired, not waited out.
	chaosRestartDelay = 30 * eventsim.Second
	// The partition window (rows with rate > 0 only): mid-run in the
	// default 5-minute window, several detection delays wide.
	chaosPartitionAt  = 2 * eventsim.Minute
	chaosPartitionFor = 30 * eventsim.Second
)

func chaosRun(idx int, rate float64, opts ChaosOptions) (ChaosRow, error) {
	net, degrees, sess, err := chaosWorld(opts)
	if err != nil {
		return ChaosRow{}, err
	}
	w := newFaultWorld(opts.Seed+int64(idx), opts.Seed*100+int64(idx), net.Latency)
	f := w.net
	sc := sched.NewScheduler(degrees, net.Latency, sched.Config{})
	if err := sc.AddSession(sess); err != nil {
		return ChaosRow{}, err
	}
	if _, err := sc.Stabilize(); err != nil {
		return ChaosRow{}, err
	}

	row := ChaosRow{Rate: rate}
	row.BaselineHeight = sess.Tree.MaxHeight(net.Latency)
	row.PeakHeight = row.BaselineHeight
	noteHeight := func() {
		if sess.Tree == nil {
			return
		}
		if h := sess.Tree.MaxHeight(net.Latency); h > row.PeakHeight {
			row.PeakHeight = h
		}
	}

	// --- delivery-loss attribution bookkeeping ---
	// Each expected delivery opens a pending entry holding the send time
	// and a snapshot of the member's tree path (the chain the packet
	// will actually travel, even if the tree is repaired afterwards).
	// Delivery closes the entry; whatever is left after the run is the
	// loss, classified against the world's down log.
	type pendingDelivery struct {
		sentAt eventsim.Time
		path   []int // forwarding ancestors, member side first; excludes root and member
	}
	pending := make(map[int]pendingDelivery) // seq*Hosts+member
	pathTo := func(m int) []int {
		var path []int
		for v := m; ; {
			p, ok := sess.Tree.Parent(v)
			if !ok {
				return path
			}
			if p != sess.Root {
				path = append(path, p)
			}
			v = p
		}
	}

	// --- data plane: forward packets along the current tree ---
	seen := make(map[int]bool) // seq*Hosts+host, dedup across replans
	for h := 0; h < opts.Hosts; h++ {
		h := h
		f.Attach(transport.Addr(h), func(from transport.Addr, msg transport.Message) {
			pkt, ok := msg.(chaosPacket)
			if !ok || sess.Tree == nil || !sess.Tree.Contains(h) {
				return
			}
			if slices.Contains(sess.Members, h) {
				if key := pkt.Seq*opts.Hosts + h; !seen[key] {
					seen[key] = true
					row.Delivered++
					delete(pending, key)
				}
			}
			for _, c := range sess.Tree.Children(h) {
				f.Send(transport.Addr(h), transport.Addr(c), 1200, pkt)
			}
		})
	}
	var pump func()
	pump = func() {
		if f.Now() >= opts.Window {
			return
		}
		if sess.Tree != nil {
			row.Sent++
			for _, m := range sess.Members {
				if !f.Crashed(transport.Addr(m)) {
					row.Expected++
					pending[row.Sent*opts.Hosts+m] = pendingDelivery{sentAt: f.Now(), path: pathTo(m)}
				}
			}
			pkt := chaosPacket{Seq: row.Sent}
			for _, c := range sess.Tree.Children(sess.Root) {
				f.Send(transport.Addr(sess.Root), transport.Addr(c), 1200, pkt)
			}
		}
		f.After(chaosPacketInterval, pump)
	}
	f.After(0, pump)

	// --- control plane: detection, repair, member rejoin ---
	// A repair runs inside the detection callback, so the repair lag
	// only has to absorb a sweep at the same instant.
	view := w.view(sc, degrees, chaosDetectDelay+2*eventsim.Second)
	var repairTotal eventsim.Time
	hit := make(map[int]bool) // whether the host's current crash hit the tree
	f.OnCrash(func(a transport.Addr) {
		h := int(a)
		hit[h] = sess.Tree != nil && sess.Tree.Contains(h)
		if hit[h] {
			row.TreeCrashes++
		}
	})
	w.watch(chaosDetectDelay, func(h int) {
		sc.NodeFailed(h)
		if _, err := sc.Stabilize(); err != nil {
			w.fail(err)
			return
		}
		// Every repair must leave whole, degree-respecting trees
		// without the dead host.
		w.sweep(view, invariant.Continuous)
		if hit[h] {
			since, _ := w.downSince(h)
			row.Repairs++
			repairTotal += f.Now() - since
		}
		noteHeight()
	}, func(h int) {
		sc.NodeRecovered(h)
		if sc.Rejoin(h) == nil {
			return // not a member the failure took
		}
		if _, err := sc.Stabilize(); err != nil {
			w.fail(err)
			return
		}
		noteHeight()
	})

	// --- fault schedule: Poisson crashes plus one partition window ---
	if rate > 0 {
		targets := make([]int, 0, opts.Hosts-1)
		for h := 0; h < opts.Hosts; h++ {
			if h != sess.Root {
				targets = append(targets, h)
			}
		}
		w.churn(rand.New(rand.NewSource(opts.Seed*1000+int64(idx)+7)), rate, 0, opts.Window, targets, chaosRestartDelay)
		half := make([]transport.Addr, opts.Hosts)
		for h := range half {
			half[h] = transport.Addr(h)
		}
		f.Install([]faultnet.Step{
			{At: chaosPartitionAt, Do: func(fn *faultnet.Net) {
				fn.Partition(half[:opts.Hosts/2], half[opts.Hosts/2:])
			}},
			{At: chaosPartitionAt + chaosPartitionFor, Do: func(fn *faultnet.Net) { fn.Heal() }},
		})
	}
	for t := sweepEvery; t <= opts.Window; t += sweepEvery {
		w.engine.At(t, func() { w.sweep(view, invariant.Continuous) })
	}

	// Run the window plus a drain period for in-flight packets.
	if err := w.run(opts.Window + 5*eventsim.Second); err != nil {
		return ChaosRow{}, err
	}
	if len(w.violations) > 0 {
		return ChaosRow{}, fmt.Errorf("chaos rate %.1f: %d invariant violations, first at %s",
			rate, len(w.violations), w.firstViolation())
	}

	ctr := f.Counters()
	row.Crashes = int(ctr.Crashes)
	row.Replans = sess.Replans
	row.Drops = ctr.LinkDrops + ctr.NodeDrops + ctr.PartitionDrops + ctr.CrashDrops
	if row.Repairs > 0 {
		row.MeanRepairSeconds = float64(repairTotal) / float64(row.Repairs) / 1000
	}

	// --- classify the loss ---
	// A packet's delivery window is [sentAt, sentAt+grace]; grace covers
	// worst-case tree traversal. Priority: the member being down beats a
	// broken path (its agent could not have received either way); a
	// broken path beats residual message loss.
	const grace = 2 * eventsim.Second
	for key, p := range pending {
		down := func(h int) bool {
			return slices.ContainsFunc(w.down[h], func(iv downSpan) bool {
				return iv.from <= p.sentAt+grace && p.sentAt <= iv.to
			})
		}
		row.Undelivered++
		switch {
		case down(key % opts.Hosts):
			row.CauseDead++
		case slices.ContainsFunc(p.path, down):
			row.CauseRepair++
		default:
			row.CauseDrop++
		}
	}
	return row, nil
}

// AttributionTable renders the delivery-loss attribution: every
// expected-but-undelivered member delivery assigned to a cause. It is
// a separate table so the classic chaos table stays byte-stable.
func (r *ChaosResult) AttributionTable() Table {
	t := Table{
		Title: "Chaos: delivery-loss attribution",
		Columns: []string{
			"rate/min", "expected", "delivered", "lost",
			"dead agent", "repair window", "drop", "attributed",
		},
		Note: "dead agent = member down in the packet's delivery window; repair window = a " +
			"forwarding ancestor down (loss between crash and tree repair); drop = residual " +
			"injected message loss; attribution always covers 100% of the loss",
	}
	for _, row := range r.Rows {
		attributed := 1.0
		if row.Undelivered > 0 {
			attributed = float64(row.CauseDead+row.CauseRepair+row.CauseDrop) / float64(row.Undelivered)
		}
		t.Rows = append(t.Rows, []string{
			f1(row.Rate), d(row.Expected), d(row.Delivered), d(row.Undelivered),
			d(row.CauseDead), d(row.CauseRepair), d(row.CauseDrop),
			f3(attributed),
		})
	}
	return t
}

// Tables renders the fault-injection study.
func (r *ChaosResult) Tables() []Table {
	t := Table{
		Title: "Chaos: self-healing ALM session under churn and partition",
		Columns: []string{
			"rate/min", "crashes", "tree hits", "repairs", "replans",
			"delivery", "repair (s)", "height (ms)", "peak (ms)", "drops",
		},
		Note: "delivery = member deliveries / expected; rate 0 is the fault-free baseline " +
			"(ratio 1, height = plain scheduler plan); repair latency is dominated by the " +
			"detection delay; a 30 s partition window splits the pool in half mid-run",
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			f1(row.Rate), d(row.Crashes), d(row.TreeCrashes), d(row.Repairs), d(row.Replans),
			f3(row.DeliveryRatio()), f1(row.MeanRepairSeconds),
			f1(row.BaselineHeight), f1(row.PeakHeight), d(int(row.Drops)),
		})
	}
	return []Table{t}
}
