package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the OS high-water resident set (VmHWM) in MB; 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1000
		}
	}
	return 0
}

// gcCPUSeconds is the runtime's estimate of CPU spent in its background
// GC workers (dedicated + idle) — time getrusage counts but no span on
// the simulation goroutine covers.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/mark/dedicated:cpu-seconds"},
		{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"},
	}
	metrics.Read(s)
	total := 0.0
	for _, x := range s {
		if x.Value.Kind() == metrics.KindFloat64 {
			total += x.Value.Float64()
		}
	}
	return total
}

// meter brackets one timed section.
type meter struct {
	wall    time.Time
	cpu     float64
	gcCPU   float64
	mallocs uint64
	pauseNS uint64
}

// reading is what one timed section cost.
type reading struct {
	WallS    float64
	CPUS     float64
	GCCPUS   float64
	GCPauseS float64
	Mallocs  uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{wall: time.Now(), cpu: cpuSeconds(), gcCPU: gcCPUSeconds(), mallocs: ms.Mallocs, pauseNS: ms.PauseTotalNs}
}

func (m meter) stop() reading {
	r := reading{WallS: time.Since(m.wall).Seconds(), CPUS: cpuSeconds() - m.cpu, GCCPUS: gcCPUSeconds() - m.gcCPU}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Mallocs = ms.Mallocs - m.mallocs
	r.GCPauseS = float64(ms.PauseTotalNs-m.pauseNS) / 1e9
	return r
}

// quantiles returns the quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is the
// spread rule the benchmark's bounds are checked against. A single
// sample is its own quartiles.
func quantiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quantiles(xs)
	return m
}

// tailPercentile applies the reporting rule for latency samples: the
// median, plus the highest whole percentile (from 90, 95, 99, 99.9)
// that still has at least ten samples beyond it — with fewer than 100
// samples no tail percentile is supported: p is 0 and tail the median.
func tailPercentile(xs []float64) (med float64, p float64, tail float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med = s[(n-1)/2]
	for _, permille := range []int{999, 990, 950, 900} {
		if beyond := n * (1000 - permille) / 1000; beyond >= 10 {
			return med, float64(permille) / 10, s[n-1-beyond], n
		}
	}
	return med, 0, med, n
}
