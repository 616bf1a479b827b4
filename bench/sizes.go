package main

// sizes are the workload dimensions. frozenSizes were tuned once, when
// the benchmark was defined, so that one repetition's timed section
// costs a few CPU-seconds on a 2-core box and a run of several
// repetitions fits the driver's time cap; they are part of every
// result's provenance and must not change with a performance claim.
// toySizes exist for the package's own tests.
type sizes struct {
	Ring struct {
		Hosts         int     `json:"hosts"`
		LeafsetRadius int     `json:"leafset_radius"`
		Shards        int     `json:"shards"`
		VirtualS      int     `json:"virtual_s"`
		ReportS       float64 `json:"somo_report_s"`
	} `json:"ring"`
	Admit struct {
		Hosts       int     `json:"hosts"`
		RatePerS    float64 `json:"sessions_per_s"`
		Group       int     `json:"group"`
		LifetimeS   float64 `json:"mean_lifetime_s"`
		VirtualS    int     `json:"virtual_s"`
		CrashPerMin float64 `json:"crashes_per_min"`
	} `json:"admit"`
	Plan struct {
		Hosts   int   `json:"hosts"`
		Groups  []int `json:"groups"`
		Rosters int   `json:"rosters"`
	} `json:"plan-groups"`
	Stream struct {
		Hosts       int     `json:"hosts"`
		Sessions    int     `json:"sessions"`
		Members     int     `json:"members"`
		Chunks      int     `json:"chunks"`
		Kbps        float64 `json:"kbps"`
		CrashPerMin float64 `json:"crashes_per_min"`
	} `json:"stream"`
	Full struct {
		Hosts         int     `json:"hosts"`
		LeafsetRadius int     `json:"leafset_radius"`
		ConvergeS     int     `json:"converge_s"`
		ServeS        int     `json:"serve_s"`
		RatePerS      float64 `json:"sessions_per_s"`
		Groups        [2]int  `json:"groups"`
		Kbps          float64 `json:"kbps"`
		CrashPerMin   float64 `json:"crashes_per_min"`
	} `json:"fullstack"`
}

func frozenSizes() sizes {
	var s sizes
	s.Ring.Hosts, s.Ring.LeafsetRadius, s.Ring.Shards = 600, 8, 8
	s.Ring.VirtualS, s.Ring.ReportS = 60, 5
	s.Admit.Hosts, s.Admit.RatePerS, s.Admit.Group = 8000, 8, 4
	s.Admit.LifetimeS, s.Admit.VirtualS, s.Admit.CrashPerMin = 300, 200, 4
	s.Plan.Hosts, s.Plan.Groups, s.Plan.Rosters = 400, []int{20, 50, 100}, 64
	s.Stream.Hosts, s.Stream.Sessions, s.Stream.Members = 8000, 48, 50
	s.Stream.Chunks, s.Stream.Kbps, s.Stream.CrashPerMin = 200, 250, 24
	s.Full.Hosts, s.Full.LeafsetRadius = 128, 8
	s.Full.ConvergeS, s.Full.ServeS = 40, 40
	s.Full.RatePerS, s.Full.Groups, s.Full.Kbps, s.Full.CrashPerMin = 1, [2]int{4, 8}, 64, 6
	return s
}

func toySizes() sizes {
	var s sizes
	s.Ring.Hosts, s.Ring.LeafsetRadius, s.Ring.Shards = 96, 4, 4
	s.Ring.VirtualS, s.Ring.ReportS = 30, 2
	s.Admit.Hosts, s.Admit.RatePerS, s.Admit.Group = 300, 4, 4
	s.Admit.LifetimeS, s.Admit.VirtualS, s.Admit.CrashPerMin = 20, 30, 8
	s.Plan.Hosts, s.Plan.Groups, s.Plan.Rosters = 120, []int{8, 20}, 2
	s.Stream.Hosts, s.Stream.Sessions, s.Stream.Members = 600, 2, 20
	s.Stream.Chunks, s.Stream.Kbps, s.Stream.CrashPerMin = 12, 250, 60
	s.Full.Hosts, s.Full.LeafsetRadius = 64, 4
	s.Full.ConvergeS, s.Full.ServeS = 35, 25
	s.Full.RatePerS, s.Full.Groups, s.Full.Kbps, s.Full.CrashPerMin = 1, [2]int{3, 5}, 64, 12
	return s
}
