package experiments

import (
	"fmt"

	"p2ppool/internal/core"
	"p2ppool/internal/topology"
)

// paperTopology is the underlay of the paper's evaluation — the
// 600-router transit-stub graph of topology.DefaultConfig — with hosts
// attached to it. Figure 4, the chaos study and (with a widened stub
// tier) the scale study generate it directly.
func paperTopology(hosts int, seed int64, workers int) topology.Config {
	top := topology.DefaultConfig()
	top.Hosts = hosts
	top.Seed = seed
	top.Workers = workers
	return top
}

// paperPool is the world figures 8 and 10, qos and the ablations plan
// in: the paper's underlay with one resource pool over all its hosts,
// every other pool parameter at core's defaults (leafset 32, 7-d
// coordinates).
func paperPool(hosts int, seed int64, workers int) (*core.Pool, error) {
	return core.BuildFast(core.Options{Topology: paperTopology(hosts, seed, workers), Seed: seed, Workers: workers})
}

// checkGroupSize is the entry check of a study that slices one roster
// of groupSize hosts, root included, out of a permutation of the pool.
func checkGroupSize(groupSize, hosts int) error {
	if groupSize > hosts {
		return fmt.Errorf("experiments: group size %d exceeds pool size %d", groupSize, hosts)
	}
	return nil
}
