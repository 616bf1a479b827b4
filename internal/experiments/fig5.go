package experiments

import (
	"math/rand"

	"p2ppool/internal/bandwidth"
	"p2ppool/internal/core"
	"p2ppool/internal/netmodel"
	"p2ppool/internal/par"
	"p2ppool/internal/stats"
)

// Fig5Options parameterizes the bandwidth-estimation experiment.
type Fig5Options struct {
	// Hosts in the population (paper: the Gnutella trace; we use the
	// synthetic mixture at the pool's scale).
	Hosts int
	// LeafsetSizes to sweep.
	LeafsetSizes []int
	Seed         int64
	// Workers bounds the parallelism; <= 0 means runtime.NumCPU(). The
	// output is identical for any worker count.
	Workers int
}

func (o Fig5Options) withDefaults() Fig5Options {
	if o.Hosts <= 0 {
		o.Hosts = 1200
	}
	if len(o.LeafsetSizes) == 0 {
		o.LeafsetSizes = []int{2, 4, 8, 16, 32, 64}
	}
	return o
}

// Fig5Row is the measurement at one leafset size.
type Fig5Row struct {
	LeafsetSize int
	// AvgUpError and AvgDownError are the mean relative errors of the
	// uplink/downlink bottleneck estimates (the y-axis of Figure 5).
	AvgUpError   float64
	AvgDownError float64
	// UpRankCorr is the Spearman rank correlation of estimated vs true
	// uplink bandwidth (the paper claims 100% correct ranking at 32).
	UpRankCorr float64
}

// Fig5Result reproduces Figure 5: average relative error of bottleneck
// bandwidth estimation versus leafset size.
type Fig5Result struct {
	Opts Fig5Options
	Rows []Fig5Row
}

// fig5ProbeBytes is the padded packet-pair probe size: one full-MTU
// packet, what the pool's own estimation round sends (core.BuildFast).
const fig5ProbeBytes = 1500

// Fig5 runs the experiment.
func Fig5(opts Fig5Options) (*Fig5Result, error) {
	opts = opts.withDefaults()
	model, err := netmodel.New(opts.Hosts, netmodel.Options{Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{Opts: opts}
	truthUp := make([]float64, opts.Hosts)
	for i := range truthUp {
		truthUp[i] = model.Up(i)
	}
	// Each leafset size draws from its own seeded rng, so the sweep
	// parallelizes as-is; rows merge in sweep order.
	rows, err := par.MapErr(opts.Workers, len(opts.LeafsetSizes), func(i int) (Fig5Row, error) {
		L := opts.LeafsetSizes[i]
		nb := core.RingNeighbors(opts.Hosts, L, rand.New(rand.NewSource(opts.Seed+int64(10*L))))
		est := bandwidth.EstimateAll(model, nb, fig5ProbeBytes, rand.New(rand.NewSource(opts.Seed+int64(L))))
		up, down := bandwidth.RelativeErrors(model, est)
		estUp := make([]float64, opts.Hosts)
		for i := range estUp {
			estUp[i] = est[i].Up
		}
		rc, err := stats.SpearmanRank(truthUp, estUp)
		if err != nil {
			return Fig5Row{}, err
		}
		return Fig5Row{
			LeafsetSize:  L,
			AvgUpError:   stats.Mean(up),
			AvgDownError: stats.Mean(down),
			UpRankCorr:   rc,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// Tables renders the sweep.
func (r *Fig5Result) Tables() []Table {
	t := Table{
		Title:   "Figure 5: average relative error of bottleneck bandwidth estimation vs leafset size",
		Columns: []string{"leafset", "avg rel err (uplink)", "avg rel err (downlink)", "uplink rank corr"},
		Note: "paper shape: error decreases with leafset size; uplink more accurate than " +
			"downlink; at leafset 32 uplink error ~0 and ranking 100% correct",
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			d(row.LeafsetSize),
			f3(row.AvgUpError),
			f3(row.AvgDownError),
			f3(row.UpRankCorr),
		})
	}
	return []Table{t}
}
