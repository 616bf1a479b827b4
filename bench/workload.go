package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"p2ppool/internal/alm"
	"p2ppool/internal/eventsim"
)

// workload is one named set of inputs. Names are fixed; why is the
// one-line reason BENCHMARK.json and the README carry.
type workload struct {
	name string
	why  string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"ring", "dht, somo, transport and the sharded event loop do all the timed work; sched, alm and dataplane none", runRing},
	{"admit", "sched.Service planning over the whole pool under churn and invariant sweeps; no ring, no pump", runAdmit},
	{"plan-groups", "the same alm planner driven the paper's Figure 8 way: large rosters on a small pool, no ledger", runPlanGroups},
	{"stream", "dataplane push and mesh-pull with access-link contention; sched runs only at start and on crashes", runStream},
	{"fullstack", "one pool where the planner reads only the SOMO root snapshot and every layer holds a share", runFullstack},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// poolSeed draws the pool itself — topology, capacities, degree bounds,
// host positions — which is the benchmark's fixed dataset. The run's
// -seed draws everything that arrives at that pool: ring IDs, rosters,
// arrival and crash schedules, and the protocols' own jitter. Planning
// and solver cost swing by a factor of two from one topology to the
// next, so a pool redrawn per seed would bury any change to the code
// under the change of input.
const poolSeed = 1

// env is one repetition's context: the seed, the frozen sizes, and —
// in the traced run only — the tracer and lifecycle recorder. A
// workload builds its world, calls startTimed, does its fixed amount of
// virtual work, calls stopTimed, then harvests and checks.
type env struct {
	seed    int64
	sz      sizes
	workers int
	tr      *tracer
	life    *lifecycle
	// latCalls counts calls through countLatency (traced run only).
	latCalls int64

	began    time.Time
	setupS   float64
	setupAcc [nKeys]accum
	m        meter
	timed    reading
}

func newEnv(seed int64, sz sizes, workers int, traced bool) *env {
	e := &env{seed: seed, sz: sz, workers: workers}
	if traced {
		e.tr = newTracer()
		e.life = newLifecycle()
	}
	e.began = time.Now()
	e.tr.begin(kHarness)
	return e
}

// startTimed ends the set-up section and starts the timed one. The
// tracer's set-up accumulators are set aside so the timed section's
// self times can be summed on their own.
func (e *env) startTimed() {
	e.tr.end()
	e.setupS = time.Since(e.began).Seconds()
	if e.tr != nil {
		e.setupAcc = e.tr.acc
		e.tr.acc = [nKeys]accum{}
		e.tr.rootTotal = 0
	}
	e.m = startMeter()
	e.tr.begin(kHarness)
}

func (e *env) stopTimed() {
	e.tr.end()
	e.timed = e.m.stop()
}

// countLatency wraps a latency function so the traced run can report how
// often the layers call it; untraced it returns lat unchanged. The
// counter is plain: only single-threaded workloads may use it (the
// sharded ring looks latencies up from several goroutines, once per
// message sent, so transport.msgs is its count).
func (e *env) countLatency(lat alm.LatencyFunc) alm.LatencyFunc {
	if e.tr == nil {
		return lat
	}
	return func(a, b int) float64 {
		e.latCalls++
		return lat(a, b)
	}
}

// outcome is what one repetition produced: everything in it is a pure
// function of (workload, seed, sizes), so two repetitions — traced or
// not — must agree on all of it.
type outcome struct {
	// ops is the number of operations attempted; refused counts those the
	// system turned away or served too late (rejected, shed, late, lost);
	// errs lists outputs that were wrong.
	ops     int64
	refused int64
	errs    []string
	events  uint64
	hash    hasher
	// exact holds the deterministic metrics: virtual-time results and the
	// layers' own counters.
	exact map[string]float64
}

func newOutcome() *outcome { return &outcome{hash: newHasher(), exact: make(map[string]float64)} }

func (o *outcome) fail(format string, args ...interface{}) {
	if len(o.errs) < 20 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// seal folds the exact metrics into the hash (in name order) so the
// determinism gate covers them too.
func (o *outcome) seal() {
	names := make([]string, 0, len(o.exact))
	for n := range o.exact {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o.hash.str(n)
		o.hash.f64(o.exact[n])
	}
	o.hash.u64(o.events)
	o.hash.u64(uint64(o.ops))
	o.hash.u64(uint64(o.refused))
}

// hasher is FNV-64a over the deterministic outputs.
type hasher struct{ h hash.Hash64 }

func newHasher() hasher { return hasher{h: fnv.New64a()} }

func (h hasher) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	h.h.Write(b[:])
}
func (h hasher) int(v int)     { h.u64(uint64(int64(v))) }
func (h hasher) f64(v float64) { h.u64(math.Float64bits(v)) }
func (h hasher) str(s string)  { h.h.Write([]byte(s)); h.u64(uint64(len(s))) }
func (h hasher) sum() uint64   { return h.h.Sum64() }

// tree hashes a tree's shape: every node with its parent, in node order.
func (h hasher) tree(t *alm.Tree) {
	if t == nil {
		h.int(-1)
		return
	}
	h.int(t.Root)
	for _, v := range t.Nodes() {
		p, _ := t.Parent(v)
		h.int(v)
		h.int(p)
	}
}

// checkTree is the per-plan correctness gate: structure and degree
// bounds.
func checkTree(o *outcome, what string, t *alm.Tree, bound alm.DegreeFunc) {
	if t == nil {
		o.fail("%s: no tree", what)
		return
	}
	if err := t.Validate(bound); err != nil {
		o.fail("%s: %v", what, err)
	}
}

// synthWorld is the synthetic metric world of the control-plane and
// streaming studies: hosts are random points on a 200x200 plane and
// latency is 5 ms plus their distance — a metric, so the planner's
// indexed helper search is exact.
func synthWorld(n int, r *rand.Rand) alm.LatencyFunc {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for h := 0; h < n; h++ {
		xs[h] = r.Float64() * 200
		ys[h] = r.Float64() * 200
	}
	return func(a, b int) float64 {
		if a == b {
			return 0
		}
		dx, dy := xs[a]-xs[b], ys[a]-ys[b]
		return 5 + math.Sqrt(dx*dx+dy*dy)
	}
}

// ringLeafsets places n hosts on a random ring and returns each host's
// L nearest ring neighbours — the leafset membership a DHT with random
// IDs yields, which is what the coordinate and bandwidth estimators
// measure against.
func ringLeafsets(n, L int, r *rand.Rand) func(i int) []int {
	perm := r.Perm(n)
	posOf := make([]int, n)
	for pos, h := range perm {
		posOf[h] = pos
	}
	if L > n-1 {
		L = n - 1
	}
	sets := make([][]int, n)
	for h := 0; h < n; h++ {
		out := make([]int, 0, L)
		for k := 1; len(out) < L; k++ {
			out = append(out, perm[(posOf[h]+k)%n])
			if len(out) < L {
				out = append(out, perm[(posOf[h]-k+n)%n])
			}
		}
		sets[h] = out
	}
	return func(i int) []int { return sets[i] }
}

// poisson pre-draws the arrival instants of a Poisson process of the
// given rate (per virtual second) over [from, to), conditioned on its
// expected count: exactly rate x window instants, independent and
// uniform over the window — so every seed offers the same amount of
// work, differently timed. An open loop in virtual time, fixed before
// the layers see any of it.
func poisson(r *rand.Rand, perSecond float64, from, to eventsim.Time) []eventsim.Time {
	n := int(math.Round(perSecond * float64(to-from) / float64(eventsim.Second)))
	out := make([]eventsim.Time, n)
	for i := range out {
		out[i] = from + eventsim.Time(r.Float64())*(to-from)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// distinct draws k distinct hosts from [0, n).
func distinct(r *rand.Rand, n, k int) []int {
	out := make([]int, 0, k)
	seen := make(map[int]bool, k)
	for len(out) < k {
		if h := r.Intn(n); !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	return out
}
