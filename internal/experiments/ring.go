package experiments

import (
	"p2ppool/internal/eventsim"
	"p2ppool/internal/somo"
	"p2ppool/internal/transport"
)

// What the ring studies (somo, churn, obs, scale, audit) share beyond
// core's staged assembly. Everything that gives a study its identity —
// engine and ID seeds, the network it hands core.Ring, whether agents
// are created in ring or host order — stays in the study (DESIGN.md
// §10).

// uniformLatency is a network where every pair of distinct members is
// ms apart one way.
func uniformLatency(ms float64) transport.LatencyFunc {
	return func(a, b int) float64 {
		if a == b {
			return 0
		}
		return ms
	}
}

// hostPayload is the report of a member with nothing to say but who it
// is; the studies that read it back match records to hosts with it.
func hostPayload(host int) interface{} { return host }

// churnSOMO is the agent configuration of the studies that crash
// members: records expire after 8 report intervals rather than SOMO's
// default 20, so a dead member leaves the root view within seconds.
func churnSOMO(reportInterval eventsim.Time) somo.Config {
	return somo.Config{ReportInterval: reportInterval, RecordTTL: 8 * reportInterval}
}
