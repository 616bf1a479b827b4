package experiments

import (
	"math/rand"

	"p2ppool/internal/core"
	"p2ppool/internal/dht"
	"p2ppool/internal/eventsim"
	"p2ppool/internal/par"
	"p2ppool/internal/transport"
)

// ChurnOptions parameterizes the self-healing study (Section 3.2's
// stability claim: "each time the global view is regenerated after a
// short jitter").
type ChurnOptions struct {
	// Nodes in the ring.
	Nodes int
	// CrashFraction of the population killed at once.
	CrashFractions []float64
	Seed           int64
	// Workers bounds the parallelism; <= 0 means runtime.NumCPU(). The
	// output is identical for any worker count.
	Workers int
}

func (o ChurnOptions) withDefaults() ChurnOptions {
	if o.Nodes <= 0 {
		o.Nodes = 128
	}
	if len(o.CrashFractions) == 0 {
		o.CrashFractions = []float64{0.05, 0.15, 0.30}
	}
	return o
}

// ChurnRow is the outcome of one crash experiment.
type ChurnRow struct {
	Nodes   int
	Crashed int
	// RecoverySeconds is the virtual time from the crash until the
	// root snapshot once again covers every survivor and no dead node.
	RecoverySeconds float64
	// Recovered reports whether full coverage was reached within the
	// observation window.
	Recovered bool
	// RootDied reports whether the crash took out the SOMO root
	// itself (the hardest case: the hierarchy re-roots).
	RootDied bool
}

// ChurnResult is the self-healing study.
type ChurnResult struct {
	Opts ChurnOptions
	Rows []ChurnRow
}

// Churn crashes a fraction of a live ring at once (no goodbye
// messages) and measures how long SOMO takes to regenerate an exact
// global view of the survivors.
func Churn(opts ChurnOptions) (*ChurnResult, error) {
	opts = opts.withDefaults()
	// Each crash fraction builds its own engine and rng seeded by the
	// fraction, so the sweep parallelizes as-is; rows merge in order.
	rows, err := par.MapErr(opts.Workers, len(opts.CrashFractions), func(i int) (ChurnRow, error) {
		return churnRun(opts.CrashFractions[i], opts)
	})
	if err != nil {
		return nil, err
	}
	return &ChurnResult{Opts: opts, Rows: rows}, nil
}

// churnReportInterval is SOMO's T here: the ring's heartbeat period, so
// recovery time measures the protocols' repair bounds (failure timeout
// + record TTL + regather), not a slow reporting clock.
const churnReportInterval = eventsim.Second

func churnRun(frac float64, opts ChurnOptions) (ChurnRow, error) {
	n := opts.Nodes
	engine := eventsim.New(opts.Seed + int64(frac*1000))
	net := transport.NewSim(engine, transport.SimOptions{Latency: uniformLatency(50)})
	r := rand.New(rand.NewSource(opts.Seed + int64(frac*100)))
	nodes, _, err := core.Ring(core.OnNet(net), dht.RandomIDs(n, r), dht.Config{
		LeafsetRadius:     8,
		HeartbeatInterval: eventsim.Second,
		FailureTimeout:    4 * eventsim.Second,
	})
	if err != nil {
		return ChurnRow{}, err
	}
	agents, _ := core.AttachSOMO(nodes, churnSOMO(churnReportInterval), hostPayload)
	// Converge first.
	engine.RunUntil(30 * eventsim.Second)

	// Crash a random fraction simultaneously.
	k := int(frac * float64(n))
	if k < 1 {
		k = 1
	}
	dead := map[int]bool{} // by host
	rootDied := false
	for _, idx := range r.Perm(n)[:k] {
		addr := nodes[idx].Self().Addr
		dead[int(addr)] = true
		if agents[idx].IsRoot() {
			rootDied = true
		}
		agents[idx].Stop()
		nodes[idx].Stop()
		net.SetDown(addr, true)
	}
	crashAt := engine.Now()

	// Poll every second for a fully healed view.
	row := ChurnRow{Nodes: n, Crashed: k, RootDied: rootDied}
	deadline := crashAt + 5*eventsim.Minute
	for engine.Now() < deadline {
		engine.RunUntil(engine.Now() + eventsim.Second)
		view, ok := core.ReadRoot(agents)
		if !ok {
			continue
		}
		seen := map[int]bool{}
		hasDead := false
		for _, rec := range view.Snapshot.Records {
			host, ok := rec.Data.(int)
			if !ok {
				continue
			}
			if dead[host] {
				hasDead = true
				break
			}
			seen[host] = true
		}
		if !hasDead && len(seen) == n-k {
			row.Recovered = true
			row.RecoverySeconds = float64(engine.Now()-crashAt) / 1000
			break
		}
	}
	return row, nil
}

// Tables renders the self-healing study.
func (r *ChurnResult) Tables() []Table {
	t := Table{
		Title:   "SOMO self-healing: mass-crash recovery (Section 3.2 stability claim)",
		Columns: []string{"nodes", "crashed", "root died", "recovered", "recovery (s)"},
		Note: "recovery = time until the root snapshot exactly covers all survivors " +
			"and no dead member; bounded by failure timeout + record TTL + regather",
	}
	for _, row := range r.Rows {
		rec := "no"
		if row.Recovered {
			rec = "yes"
		}
		rd := "no"
		if row.RootDied {
			rd = "yes"
		}
		t.Rows = append(t.Rows, []string{
			d(row.Nodes), d(row.Crashed), rd, rec, f1(row.RecoverySeconds),
		})
	}
	return []Table{t}
}
