package experiments

import (
	"fmt"
	"math/rand"

	"p2ppool/internal/coords"
	"p2ppool/internal/core"
	"p2ppool/internal/par"
	"p2ppool/internal/stats"
	"p2ppool/internal/topology"
)

// Fig4Options parameterizes the coordinate-accuracy experiment.
type Fig4Options struct {
	// Hosts in the simulation (paper: 1200).
	Hosts int
	// Pairs sampled to build each CDF.
	Pairs int
	// Seed drives everything.
	Seed int64
	// Workers bounds the parallelism; <= 0 means runtime.NumCPU(). The
	// output is identical for any worker count.
	Workers int
}

func (o Fig4Options) withDefaults() Fig4Options {
	if o.Hosts <= 0 {
		o.Hosts = 1200
	}
	if o.Pairs <= 0 {
		o.Pairs = 4000
	}
	return o
}

// Fig4Series is one scheme's error distribution.
type Fig4Series struct {
	Name   string
	Errors []float64
	CDF    *stats.CDF
}

// Fig4Result reproduces Figure 4: CDFs of relative pairwise latency
// prediction error for GNP with 16 and 32 infrastructure nodes versus
// the leafset-based variant with leafset sizes 16 and 32.
type Fig4Result struct {
	Opts   Fig4Options
	Series []Fig4Series
}

// fig4Dim is the embedding dimension of every series: the one the pool
// itself embeds in (core's coordDim), so the CDFs describe the
// coordinates the planner sees.
const fig4Dim = 7

// fig4Landmarks are the GNP landmark counts the figure sweeps.
var fig4Landmarks = []int{16, 32}

// Fig4 runs the experiment. All randomness is drawn sequentially up
// front (probe pairs, then the landmark sets in sweep order, exactly
// as the sequential harness drew them); the four solver runs then
// execute on a worker pool and merge in sweep order, so the result is
// identical for any Workers value.
func Fig4(opts Fig4Options) (*Fig4Result, error) {
	opts = opts.withDefaults()
	if opts.Hosts < fig4Landmarks[len(fig4Landmarks)-1] {
		return nil, fmt.Errorf("experiments: figure 4 draws %d landmarks from %d hosts",
			fig4Landmarks[len(fig4Landmarks)-1], opts.Hosts)
	}
	net, err := topology.Generate(paperTopology(opts.Hosts, opts.Seed, opts.Workers))
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(opts.Seed + 1))
	pairs := coords.RandomPairs(opts.Hosts, opts.Pairs, r)

	// Pre-drawn inputs for each series, in sweep order.
	type task struct {
		name  string
		solve func() ([]coords.Vector, error)
	}
	var tasks []task
	for _, nl := range fig4Landmarks {
		lms := distinct(r, opts.Hosts, nl)
		tasks = append(tasks, task{
			name: fmt.Sprintf("GNP-%d", nl),
			solve: func() ([]coords.Vector, error) {
				return coords.SolveGNP(net.Latency, opts.Hosts, lms, coords.GNPConfig{
					Dim:  fig4Dim,
					Seed: opts.Seed + 2,
				})
			},
		})
	}
	for _, L := range []int{16, 32} {
		L := L
		tasks = append(tasks, task{
			name: fmt.Sprintf("Leafset-%d", L),
			solve: func() ([]coords.Vector, error) {
				nb := core.RingNeighbors(opts.Hosts, L, rand.New(rand.NewSource(opts.Seed+3)))
				return coords.SolveLeafset(net.Latency, opts.Hosts, nb, coords.LeafsetConfig{
					Dim:     fig4Dim,
					Rounds:  15,
					Seed:    opts.Seed + 4,
					Core:    L + 1,
					Workers: opts.Workers,
				})
			},
		})
	}

	series, err := par.MapErr(opts.Workers, len(tasks), func(i int) (Fig4Series, error) {
		cs, err := tasks[i].solve()
		if err != nil {
			return Fig4Series{}, err
		}
		errs := coords.PairErrors(cs, net.Latency, pairs)
		return Fig4Series{
			Name:   tasks[i].name,
			Errors: errs,
			CDF:    stats.NewCDF(errs),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig4Result{Opts: opts, Series: series}, nil
}

// Tables renders the CDF grid plus a summary.
func (r *Fig4Result) Tables() []Table {
	xs := []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0}
	cdf := Table{
		Title:   "Figure 4: CDF of relative latency-prediction error",
		Columns: []string{"rel.err <="},
		Note: "paper shape: Leafset-32 tracks GNP-16 closely; the leafset " +
			"variant is more sensitive to leafset size than GNP is to landmark count",
	}
	for _, s := range r.Series {
		cdf.Columns = append(cdf.Columns, s.Name)
	}
	for _, x := range xs {
		row := []string{f3(x)}
		for _, s := range r.Series {
			row = append(row, f3(s.CDF.P(x)))
		}
		cdf.Rows = append(cdf.Rows, row)
	}
	sum := Table{
		Title:   "Figure 4 summary",
		Columns: []string{"scheme", "median", "p80", "p90"},
	}
	for _, s := range r.Series {
		sum.Rows = append(sum.Rows, []string{
			s.Name,
			f3(stats.Median(s.Errors)),
			f3(stats.Percentile(s.Errors, 80)),
			f3(stats.Percentile(s.Errors, 90)),
		})
	}
	return []Table{cdf, sum}
}

// distinct draws min(k, n) distinct ints in [0, n).
func distinct(r *rand.Rand, n, k int) []int {
	k = min(k, n)
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		x := r.Intn(n)
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
