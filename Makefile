GO ?= go

.PHONY: all build fmt test cover race vet fuzz bench bench-json bench-suite bench-compare bench-label profile chaos obs scale audit load stream conf mains layout seeds ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every non-test function runs under the full test suite unless
# cover-allow.txt names it (the commands, the paths past 12,000 hosts,
# and what is pending on the roadmap). Fails on a function at 0% that
# the list does not name — dead code, or code no test reaches — and on
# a listed one that now runs, so the list cannot go stale. ~1.5 min.
cover:
	@mkdir -p .bench_build
	$(GO) test -coverpkg=./... -coverprofile=.bench_build/cover.out ./... > .bench_build/cover.log || { cat .bench_build/cover.log; exit 1; }
	@$(GO) tool cover -func=.bench_build/cover.out | awk '$$NF == "0.0%" { split($$1, f, ":"); print f[1], $$2 }' | sort -u > .bench_build/cover.zero
	@grep -v -e '^#' -e '^$$' cover-allow.txt | sort -u > .bench_build/cover.allow
	@{ comm -23 .bench_build/cover.zero .bench_build/cover.allow | sed 's/^/cover: never runs under go test: /'; \
	   comm -13 .bench_build/cover.zero .bench_build/cover.allow | sed 's/^/cover: listed in cover-allow.txt but runs: /'; } > .bench_build/cover.bad
	@if [ -s .bench_build/cover.bad ]; then cat .bench_build/cover.bad >&2; exit 1; fi
	@echo "cover: $$(wc -l < .bench_build/cover.zero) functions at 0%, all in cover-allow.txt"

# Race-check the short test set: the parallel paths (topology all-pairs,
# experiment fan-out, worker pool) are all exercised under -short. The
# seed corpora of the differential fuzz targets run here too, as plain
# tests: dataplane's FuzzPumpMatchesReference (the pump against its
# pre-PR-24 clock), transport's FuzzShardedSimMatchesReference (the
# per-shard dense tables against the map-backed send path, two workers)
# and coords' FuzzSolveLeafsetMatchesReference (the wavefront leafset
# solve against the sequential one, workers 1/2/3/8) among them.
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# Every fuzz target past its seed corpus, one `go test -fuzz` per target
# (Go fuzzes one at a time), FUZZTIME each: `make fuzz FUZZTIME=2m`.
# The targets are differential — each layer against its old self kept
# verbatim in a _test.go, or ShardedSim against a standalone Sim — so a
# failure is a behaviour change; go test writes the failing input under
# the package's testdata/fuzz. Not part of `ci`: its length is open-ended.
FUZZTIME ?= 30s
fuzz:
	@for d in $$(grep -rl --include='*_test.go' '^func Fuzz' . | xargs -n1 dirname | sort -u); do \
		for f in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$d/*_test.go); do \
			echo "$$d $$f"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) $$d || exit 1; \
		done; \
	done

# gofmt prints the files it would rewrite; any name is a failure.
fmt:
	test -z "$$(gofmt -l .)"

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Fault-injection study: a live ALM session under Poisson churn and a
# partition window, swept by the invariant registry after every repair
# and every 5 s; any violation exits nonzero. Same seed =>
# byte-identical output.
chaos:
	$(GO) run ./cmd/experiments -fig chaos -seed 1

# Observability study: the SOMO-dogfooded system-health dashboard plus
# delivery-loss attribution under chaos. Opt-in (never part of "all").
obs:
	$(GO) run ./cmd/experiments -fig obs -trace 20 -seed 1

# Scale study: the full protocol stack (pool + DHT + SOMO + ALM
# planning) swept from the paper's 1200 hosts to 100000, with the
# router substrate scaling in proportion (coordinate latency oracle +
# sharded event loop past the exact-table threshold). Opt-in (never
# part of "all"); same seed => byte-identical table for any -workers.
scale:
	$(GO) run ./cmd/experiments -fig scale -seed 1

# Invariant audit: 15 cross-layer checks (DHT ring, SOMO tree, ALM
# sessions, scheduler ledger) swept over 20 seeds of scripted churn,
# partition and repair. Exits nonzero on any violation and prints a
# delta-debugged minimal fault script reproducing it. Opt-in (never
# part of "all"); same seed => byte-identical output for any -workers.
audit:
	$(GO) run ./cmd/experiments -fig audit -seed 1

# Control-plane soak: thousands of concurrent sessions under Poisson
# arrivals, a diurnal curve, a flash crowd into one hot session and a
# flat overload, with churn throughout and invariant sweeps every few
# virtual seconds. Exits nonzero on any violation. Opt-in (never part
# of "all"); same seed => byte-identical output for any -workers.
load:
	$(GO) run ./cmd/experiments -fig load -seed 1

# Streaming study: chunk-level media delivery over the planned trees at
# N=8000 — a bitrate ladder swept through live and VoD playout deadlines
# with churn on/off, access-link contention from the capacity mixture,
# and mesh-pull recovery of tree misses; delivered bitrate is reported
# against the member-only data-driven capacity bound. Opt-in (never part
# of "all"); same seed => byte-identical output for any -workers.
stream:
	$(GO) run ./cmd/experiments -fig stream -seed 1

# Conferencing study: M-member sessions where every member is a source,
# so the scheduler plans M trees per session against one shared per-host
# capacity ledger and each source pumps its own chunk sequence under
# shared access-link contention. Cells sweep solo vs market (competing
# single-source broadcasts) and churn on/off (restarted members rejoin
# through Scheduler.Rejoin); per-source delivered bitrate is reported
# against the shared member-only bound sum(up)/(M*(M-1)). Continuous
# invariant sweeps audit the shared ledger; exits nonzero on any
# violation. Opt-in (never part of "all"); same seed => byte-identical
# output for any -workers.
conf:
	$(GO) run ./cmd/experiments -fig conf -seed 1

# Machine-readable bench trajectories: the scale study's per-size wall
# time, allocations, events/sec, live heap and OS peak RSS, the load
# study's per-cell wall time and plans/sec, the stream study's
# per-(cell, rung) delivered bitrate, miss rate and wall time, and the
# conferencing study's per-cell delivered bitrate vs the shared
# member-only bound, each appended to its BENCH_<study>.json as a
# labeled run so the files accumulate the per-PR history. The four
# schemas and the one writer behind them are documented in
# internal/experiments/benchfile.go. Cells run sequentially so the
# measurements are honest. The label has no default — a stale one
# silently replaces an old run — so name the run:
# `make bench-json BENCH_LABEL=pr16`.
bench-label:
	@test -n "$(BENCH_LABEL)" || { echo "BENCH_LABEL is unset: make $(MAKECMDGOALS) BENCH_LABEL=<run name>" >&2; exit 1; }

bench-json: bench-label
	$(GO) run ./cmd/experiments -fig scale -seed 1 -benchjson BENCH_scale.json -bench-label $(BENCH_LABEL)
	$(GO) run ./cmd/experiments -fig load -seed 1 -benchjson BENCH_load.json -bench-label $(BENCH_LABEL)
	$(GO) run ./cmd/experiments -fig stream -seed 1 -benchjson BENCH_stream.json -bench-label $(BENCH_LABEL)
	$(GO) run ./cmd/experiments -fig conf -seed 1 -benchjson BENCH_conf.json -bench-label $(BENCH_LABEL)

# The repository's benchmark (bench/README.md): five named workloads,
# every metric printed by name, outputs checked. bench-suite writes the
# labeled result file; bench-compare applies every metric's bound to two
# of them and exits nonzero on any "worse":
# `make bench-compare BASE=bench-results/pr12.json CAND=bench-results/pr14.json`.
# bench-results/ is git-ignored.
bench-suite: bench-label
	mkdir -p bench-results
	$(GO) run ./bench -out bench-results/$(BENCH_LABEL).json

bench-compare:
	$(GO) run ./bench compare $(BASE) $(CAND)

# CPU+heap profiles of the full figure set; inspect with
# `go tool pprof cpu.pprof`.
profile:
	$(GO) run ./cmd/experiments -fig all -seed 1 -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null

# The five examples and cmd/topostat have no tests of their own; this
# runs each to completion and fails on a nonzero exit. ~13 s in all, so
# it lives here and in `ci`, not in `go test`.
mains:
	for m in ./examples/* ./cmd/topostat; do $(GO) run $$m > /dev/null || exit 1; done

# The five event-driven studies whose exit status is a correctness check
# (load, stream and conf at their `ci` sizes, chaos and audit at their
# own), then qos, Figures 8 and 10 and the ablations at one run each,
# over three consecutive seeds, without -race. The window starts at 4
# plus the HEAD commit's hash mod 97 (4 outside git), so it moves from
# commit to commit while its cost stays put (about 13 s a seed on a
# 2-core box, audit and the ablations most of it); `make seeds SEEDS="7
# 8 9"` picks the seeds. A failure prints the study's violation table
# (each failing cell with its first violation), then names the study and
# the seed; the last study's stdout is in .bench_build/seeds.out.
SEEDS ?= $(shell s=$$((4 + 0x$$(git rev-parse --short=8 HEAD 2>/dev/null || echo 0) % 97)); echo $$s $$((s + 1)) $$((s + 2)))
seeds:
	@mkdir -p .bench_build
	$(GO) build -o .bench_build/experiments ./cmd/experiments
	@for s in $(SEEDS); do \
		for f in "load -hosts 300 -load-runtime 45" "stream -hosts 900 -stream-chunks 10" "conf -hosts 900 -conf-chunks 10" chaos audit \
			"qos -runs 1" "8 -runs 1" "10 -runs 1" "ablations -runs 1"; do \
			echo "seeds: -fig $$f -seed $$s"; \
			.bench_build/experiments -fig $$f -seed $$s > .bench_build/seeds.out || { \
				awk '/^== .*violations.* ==$$/,/^$$/' .bench_build/seeds.out >&2; \
				echo "seeds: study $${f%% *} failed at seed $$s" >&2; exit 1; }; \
		done; \
	done

# Proof that the coordinate fit's speed does not depend on where the
# linker puts it. Before PR 22 coords.fitError ran 7-30% slower entered
# at 32 mod 64 bytes than at 0, and every package linked ahead of coords
# moved it, so timings of untouched layers swung with unrelated edits.
# This builds the root test binary twice — plain, and with the
# `layoutpad` tag, which links 96 bytes of text into internal/par ahead
# of coords — prints where the dim-7 kernel, the generic loop and the
# simplex landed mod 64 in each, fails unless the kernel changed halves,
# then samples BenchmarkFitError (300 ops) and the one-worker half of
# BenchmarkLeafsetCoordinates (2 ops) thirty times on each binary in
# alternation, and fails if the medians of the dim-7 kernel or the
# leafset solve differ by more than 8% between the two layouts (the
# dim-5 generic loop is printed, not gated). Both run on one worker:
# the leafset solve's wavefront on several would add goroutine
# scheduling to what the gate is meant to measure, code placement.
# ~1.5 min. Thirty short samples rather than six long ones because
# single runs on a shared box scatter by more than the gate; what is
# left at dim 7 is ~5% (the simplex's own seven-iteration loops), so a
# reading just over 8% on a loaded box is the host — run it again.
LAYOUT_SYMS = (\(\*fit\)\.error7|\(\*fit\)\.errorN|\(\*simplex\)\.minimize)
layout:
	@mkdir -p .bench_build
	$(GO) test -c -o .bench_build/layout-plain.test .
	$(GO) test -c -tags layoutpad -o .bench_build/layout-pad.test .
	@for v in plain pad; do $(GO) tool nm .bench_build/layout-$$v.test | \
		grep -E ' p2ppool/internal/coords\.$(LAYOUT_SYMS)$$' | \
		while read addr kind name; do echo "$$v $$name 0x$$addr mod 64 = $$((0x$$addr % 64))"; done; done | tee .bench_build/layout.syms
	@test "$$(grep -c 'error7.*mod 64 = 0$$' .bench_build/layout.syms)" = 1 || \
		{ echo "layout: the pad did not move coords.(*fit).error7 to the other half of a 64-byte line; resize internal/par/layoutpad.go" >&2; exit 1; }
	@rm -f .bench_build/layout.runs
	@for i in $$(seq 1 30); do for v in plain pad; do \
		{ .bench_build/layout-$$v.test -test.run '^$$' -test.bench '^BenchmarkFitError$$' -test.benchtime 300x && \
		  .bench_build/layout-$$v.test -test.run '^$$' -test.bench '^BenchmarkLeafsetCoordinates$$/^workers=1$$' -test.benchtime 2x; } | \
		awk -v v=$$v '/^Benchmark/ { sub(/-[0-9]+$$/, "", $$1); print $$1, v, $$3 }' >> .bench_build/layout.runs || exit 1; \
	done; done
	@sort -k1,1 -k2,2 -k3,3n .bench_build/layout.runs | awk ' \
		{ k = $$1 " " $$2; n[k]++; x[k, n[k]] = $$3; names[$$1] = 1 } \
		function median(k) { return (x[k, int((n[k] + 1) / 2)] + x[k, int(n[k] / 2) + 1]) / 2 } \
		END { for (b in names) { p = median(b " plain"); q = median(b " pad"); s = (q > p ? q / p : p / q) - 1; \
			gated = b !~ /dim=5/; \
			printf "%-40s plain %10.0f ns/op  pad %10.0f ns/op  spread %4.1f%%%s\n", b, p, q, 100 * s, gated ? "" : " (not gated)"; \
			if (gated && s > 0.08) bad = 1 } \
		  if (bad) { print "layout: a gated median moved more than 8% with the pad" > "/dev/stderr"; exit 1 } }'

# The obs smoke run, under the race detector, doubles as an end-to-end
# check that metrics + tracing assemble a dashboard out of the SOMO root
# snapshot: its snapshots call readers of each instrumented layer's own
# counters and state, a member's from inside its SOMO report; the bench
# smoke compiles and single-iterates every benchmark; the first scale
# smoke runs the paper-size cell (N=1200, exact oracle) end to end; the
# second runs the N=30000 cell time-boxed to 5 simulated seconds, which
# forces the coordinate latency oracle (~15k routers, past the exact
# threshold) and the sharded event loop through a real ring — the one
# step whose lockstep windows hold enough events (~5,000) to be split
# across workers by the rule itself; the audit
# runs the full 20-seed invariant sweep under the race detector (it
# exits nonzero on any violation — rerun `make audit` to see the
# shrunk reproduction). Every other sharded world in CI is too light to
# split (eventsim splits a window only after one of 512 events or
# more), so the first three steps put the concurrent path under the
# race detector on purpose, checking that each shard's state is written
# only by the shard's own goroutine: eventsim's ShardGroup tests, whose
# forced-split arms zero the group's threshold (a ramp across it and
# back against a serial run), ten times; transport's worker-determinism
# fixture, and the shards against their map-backed model and against a
# standalone Sim, ten times, built with -tags forcesplit so that every
# window with two or more workers splits; and, built the same way, the
# scale study's worker-determinism test, which runs the protocol layers
# (dht, somo, core's ring) on 8 shards at workers 1/4/16. The fourth
# does the same for the leafset coordinate solve's wavefront, whose
# levels share one plane per coordinate version across workers: the
# seed corpus of coords' FuzzSolveLeafsetMatchesReference (workers
# 1/2/3/8 against the sequential solve), ten times. The fifth fuzzes
# the scheduler's ledger for twenty seconds past its seed corpus: the
# per-host degree tables, released through a session's own list of
# granting hosts, against a flat list of holdings (FuzzRegistryLedger),
# so a slip in a table's cached counters, its preemption order or its
# compaction fails CI. The sixth fuzzes the invariant sweep for ten
# seconds: the session checks, which read the ledger in place, against
# the copy-everything checks kept as a model in a _test.go file
# (FuzzSweepMatchesReference), on schedulers corrupted through exported
# APIs, so a violation missed, invented or reordered fails CI. The chaos runs take a live session through
# crashes, restarts and a partition under the race detector at full
# size, at seeds 1, 2 and 3 (three fault schedules; about 0.1 s a seed
# without -race), its restarts taking members back through
# Scheduler.Rejoin; the invariant registry's continuous checks, swept
# after every repair and every 5 s (whole, degree-respecting trees
# without a dead host, every member in them, the slot ledger), exit
# nonzero on any violation. The load
# smoke soaks the scheduler control plane (admission, shedding,
# preemption damping, flash crowd) for 45 simulated seconds on a small
# pool under the race detector; it too exits nonzero on any invariant
# violation. The stream smoke pushes 10 chunks of payload down planned
# trees on a 900-host pool under the race detector — the full
# plan -> pump -> contention -> pull path end to end, its runs sharing
# one read-only capacity world — and exits nonzero on any invariant
# violation its continuous sweeps find. The conf smoke runs the
# multi-source grain through the same media run: M trees per
# conference on one shared ledger, concurrent per-source pumps, market
# competition and churn rejoins, with the same sweeps arming the
# nonzero exit on any conservation violation. The last three steps
# are the benchmark's correctness gates: on its control-plane workload —
# tree validity, ledger invariants (cached counters recomputed from the
# allocations) and repetition determinism — in two seconds, on its
# planner workload — every AMCast, helper, Adjust and Repair tree valid
# and within its degree bounds, two repetitions hashing alike — in
# about five, and on its data-plane workload — 48 pumps under
# contention and churn, each one's four outcome buckets summing to what
# was expected, repetitions hashing alike — in about five more. The
# last two run the gates of the workloads the message path carries:
# `ring` under the race detector (dht.CheckRing, full root-snapshot
# coverage, and — built with -tags forcesplit, since its ~124-event
# windows would otherwise run on one goroutine — each shard's endpoint
# tables and protocol state written only by the shard's own goroutine)
# and `fullstack` (every layer on one pool).
ci: build fmt vet test cover race mains layout seeds
	$(GO) test -race -count=10 -run 'ShardGroup' ./internal/eventsim
	$(GO) test -race -count=10 -tags forcesplit -run 'ShardedSimWorkerDeterminism|FuzzShardedSimMatchesReference|FuzzShardedSimMatchesSim' ./internal/transport
	$(GO) test -race -tags forcesplit -run 'TestScaleWorkerDeterminism' ./internal/experiments
	$(GO) test -race -count=10 -run 'FuzzSolveLeafsetMatchesReference' ./internal/coords
	$(GO) test -run '^$$' -fuzz '^FuzzRegistryLedger$$' -fuzztime 20s ./internal/sched
	$(GO) test -run '^$$' -fuzz '^FuzzSweepMatchesReference$$' -fuzztime 10s ./internal/invariant
	$(GO) run -race ./cmd/experiments -fig obs -seed 1 > /dev/null
	$(GO) test -bench=. -benchtime=1x -run '^$$' . > /dev/null
	$(GO) run ./cmd/experiments -fig scale -hosts 1200 -scale-runtime 30 -seed 1 > /dev/null
	$(GO) run ./cmd/experiments -fig scale -hosts 30000 -scale-runtime 5 -seed 1 > /dev/null
	$(GO) run -race ./cmd/experiments -fig audit -seed 1 > /dev/null
	for s in 1 2 3; do $(GO) run -race ./cmd/experiments -fig chaos -seed $$s > /dev/null || exit 1; done
	$(GO) run -race ./cmd/experiments -fig load -hosts 300 -load-runtime 45 -seed 1 > /dev/null
	$(GO) run -race ./cmd/experiments -fig stream -hosts 900 -stream-chunks 10 -seed 1 > /dev/null
	$(GO) run -race ./cmd/experiments -fig conf -hosts 900 -conf-chunks 10 -seed 1 > /dev/null
	$(GO) run ./bench -workload admit -seconds 2 > /dev/null
	$(GO) run ./bench -workload plan-groups -seconds 1 > /dev/null
	$(GO) run ./bench -workload stream -seconds 2 > /dev/null
	$(GO) run -race -tags forcesplit ./bench -workload ring -seconds 1 > /dev/null
	$(GO) run ./bench -workload fullstack -seconds 2 > /dev/null
