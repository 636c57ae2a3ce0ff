# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check ci-quick ci-full build test vet flags-check race fuzz-smoke fuzz-radio chaos adversary modelcheck modelcheck-smoke modelcheck-seed resume-smoke bench bench-sweep bench-smoke bench-chaos bench-adversary bench-modelcheck bench-gate bench-all bench-compare loc profile profile-cell examples experiments clean

all: check

check: build vet test race fuzz-smoke adversary modelcheck-smoke bench-smoke resume-smoke

# Tiered CI entry points (.github/workflows/ci.yml): ci-quick gates every
# push, ci-full gates pull requests, and the scheduled nightly job runs
# `make chaos modelcheck fuzz-radio resume-smoke` directly.
ci-quick: build vet test flags-check

ci-full: race fuzz-smoke adversary modelcheck-smoke bench-smoke resume-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# "No knob added, none lost" as a command: every command's flag names,
# read from its own -h, must equal the committed scripts/flags.golden.
# After a deliberate flag change: sh scripts/flags.sh > scripts/flags.golden
flags-check:
	GO="$(GO)" sh scripts/flags.sh | diff scripts/flags.golden -

# The sweep engine and its callers run cells concurrently; -race on them
# keeps that honest. The model checker's workers, the other concurrent
# code, are raced by modelcheck-smoke. The generous -timeout is for
# single-core boxes, where the race detector's slowdown is at its worst.
race:
	$(GO) test -race -timeout 60m ./internal/sweep/ ./internal/experiments/ ./internal/scenario/

# Bounded conformance fuzz: replay the committed regression seeds and
# FuzzScenario's seed corpus (every protocol × fault profile, and each
# non-default radio and density) under the race detector, then 20 s of
# native fuzzing of FuzzScenario, whose failing input is minimised toward
# the default axes and fewest flows. Then 20 s each of native fuzzing of
# the event queue against its scan-for-minimum model, of OLSR's
# id-indexed link state and of the
# on-demand duplicate cache, buffers and discoveries against the map
# implementations they replaced, of the radio's receiver scan (which
# keeps positions) against brute force and the scan that looked every node
# up, of the radio's batched, bitset-tracked and addressed delivery
# against per-receiver events, of LoadSpec on hostile seed files, of the
# journal's Open and Put on hostile record files, and of benchjson's parse
# on hostile `go test` output (a failing input lands in the package's
# testdata/fuzz/ and then fails plain `go test` too).
fuzz-smoke:
	$(GO) test -race -timeout 30m ./internal/conformance/ -run 'TestRegressionSeeds|FuzzScenario'
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzScenario -fuzztime 20s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzEventQueue -fuzztime 20s
	$(GO) test ./internal/olsr -run '^$$' -fuzz FuzzOLSRState -fuzztime 20s
	$(GO) test ./internal/routing/ondemand -run '^$$' -fuzz FuzzOnDemandState -fuzztime 20s
	$(GO) test ./internal/radio -run '^$$' -fuzz FuzzReceiverSet -fuzztime 20s
	$(GO) test ./internal/radio -run '^$$' -fuzz FuzzBatchedDelivery -fuzztime 20s
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzLoadSpec -fuzztime 20s
	$(GO) test ./internal/resilience -run '^$$' -fuzz FuzzJournalRecord -fuzztime 20s
	$(GO) test ./cmd/benchjson -run '^$$' -fuzz FuzzParse -fuzztime 20s

# Heterogeneous-radio fuzz axis (nightly): the one-way-link and
# uneven-placement regressions under the race detector, then 5 min of
# FuzzScenario, whose corpus holds the mixed/asym radio and
# gradient/hotspot density seeds, so the MAC ACK-exhaustion and
# hello-gating paths stay under continuous conservation/census audit.
fuzz-radio:
	$(GO) test -race -timeout 30m ./internal/conformance/ -run 'TestHeteroRadioChaosClean|TestAsymAckExhaustAccounted|TestOLSRAsymNoBlackhole'
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzScenario -fuzztime 5m

# The fault-injection suite under the race detector: the van Glabbeek
# loop reproduction, the per-profile LDR invariant properties, and the
# chaos sweep's worker-count determinism. The closing ldrchaos run is
# journaled with a watchdog and keep-going quarantine — the crash-safe
# mode the nightly job exercises end to end; its journal (and failure
# manifest plus reproducers, if any cell was quarantined) survives in
# the printed directory for post-mortem.
chaos:
	$(GO) test -race -timeout 60m ./internal/fault/ -run .
	$(GO) test -race -timeout 60m ./internal/experiments/ -run Chaos
	d=$$(mktemp -d)/journal; echo "chaos journal: $$d"; \
	$(GO) run ./cmd/ldrchaos -trials 2 -simtime 60s -journal $$d -cell-timeout 10m -keep-going

# Crash-safety smoke: SIGKILL a journaled chaos sweep mid-flight, resume
# it from the journal, and require output byte-identical to an
# uninterrupted run (plus the stale-journal -resume guard). Part of
# `make check`, `make ci-full`, and the nightly job.
resume-smoke:
	GO="$(GO)" sh scripts/resume-smoke.sh

# Bounded model check, full scale (a few minutes on one core):
# exhaustively verify LDR's loop-freedom and (sn, fd) ordering on every
# non-isomorphic connected 3- and 4-node topology within the sweep's
# budgets (state counts reported, zero violations required), then make
# the checker rediscover the van Glabbeek AODV loop from scratch and
# replay both a fresh witness and the committed seed to a real routing
# loop under the full MAC/radio simulator.
modelcheck:
	$(GO) run ./cmd/ldrbench -exp modelcheck
	$(GO) run ./cmd/ldrcheck -protocol aodv -resets 1 -drops 1 -expect-violation -emit /tmp/aodv-line3-loop.json -q
	$(GO) test ./internal/modelcheck/ -run 'TestAODVLine3Violation|TestWitnessBridge' -v

# Fast model-check smoke under the race detector: all five pinned
# explorations (LDR clean at the van Glabbeek budget, under volatile
# resets and on the 4-node paw; the rediscovered AODV loop; the
# committed-seed bridge replays) plus the checks the search rests on:
# restore equals replay, an action touches one node, independent actions
# commute, the sleep sets keep every state of the unreduced search, state
# keys are equal iff serializations are, a warm key allocates nothing, the
# visited table agrees with a map, and the search is the same at one, two
# and three workers, whose handlers run one at a time and whose panics
# reach the caller. The race detector watches the workers here.
# Part of `make check`.
modelcheck-smoke:
	$(GO) test -race -timeout 30m ./internal/modelcheck/ -run 'TestLDRLine3Clean|TestLDRVolatileLine3Clean|TestLDRPaw4Clean|TestAODVLine3Violation|TestWitnessBridge|TestSnapshotEqualsReplay|TestActionTouchesOneNode|TestReductionKeepsEveryState|TestIndependentActionsCommute|TestKeysDoNotCollide|TestEncoderKeyDoesNotAllocate|TestKeySetMatchesMap|TestExploreIndependentOfWorkers|TestHandlersRunOneAtATime|TestWorkerPanicReachesTheCaller|TestProgressEndsWithTheResult'

# Regenerate the committed van Glabbeek witness seed from scratch (the
# checker re-derives the schedule; the file only changes if the witness
# translation rules did).
modelcheck-seed:
	$(GO) run ./cmd/ldrcheck -protocol aodv -resets 1 -drops 1 -expect-violation \
		-emit internal/modelcheck/testdata/aodv-line3-loop.json -q

# Exploration throughput (states/sec, trans/sec) and exact state counts,
# recorded as BENCH_modelcheck.json and gated against the committed
# baseline: >10% B/op or allocs/op regression fails the target.
bench-modelcheck:
	$(GO) test -run '^$$' -bench 'CheckLDRLine3|CheckAODVLine3' -benchtime 2x -benchmem \
		./internal/modelcheck/ | tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_modelcheck.json -maxregress 10

# The Byzantine-node suite under the race detector: LDR's loop-freedom
# property under every attack profile, the committed AODV forged-seqno
# loop regression seed, attack accounting, storm suppression, and
# attacked-run determinism.
adversary:
	$(GO) test -race -timeout 60m ./internal/adversary/ -run .

# Attack impact at paper scale (delivery under attack vs baseline,
# control amplification, accounted adversary drops, NDC rejections),
# recorded as BENCH_adversary.json.
bench-adversary:
	$(GO) test -run '^$$' -bench AttackImpact -benchtime 2x \
		./internal/adversary/ | tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_adversary.json

# Audit-hook overhead on the 50-node scenario (the <10% acceptance bar),
# recorded as BENCH_chaos.json.
bench-chaos:
	$(GO) test -run '^$$' -bench AuditOverhead -benchtime 3x \
		./internal/fault/ | tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_chaos.json

# Sweep, radio and OLSR hot-path benchmarks, recorded as BENCH_sweep.json
# (cells/sec, ns/op, B/op, allocs/op per benchmark).
BENCH_SWEEP = -bench 'Sweep|Transmit|Neighbors|Recompute100|SelectMPRs100' -benchmem \
	./internal/sweep/ ./internal/radio/ ./internal/olsr/
bench:
	$(GO) test -run '^$$' $(BENCH_SWEEP) | tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_sweep.json

# Same benchmarks, gated against the committed BENCH_sweep.json: any
# benchmark whose B/op or allocs/op regressed more than 10% fails the
# target (non-zero exit) and leaves the committed baseline untouched.
bench-sweep:
	$(GO) test -run '^$$' $(BENCH_SWEEP) | tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_sweep.json -maxregress 10

# Fast allocation-regression smoke: the zero-alloc guards on the event
# loop, the radio's fault-delayed delivery, MAC queue and RTS/CTS
# exchange, LDR round trip, LDR's and AODV's warm model-state
# save/encode/restore and OLSR's warm link-state paths, plus a single tiny
# sweep cell.
# Part of `make check` so steady-state allocation creep fails CI quickly.
bench-smoke:
	$(GO) test -run 'Alloc|ZeroAlloc' ./internal/sim/ ./internal/radio/ ./internal/mac/ ./internal/core/ ./internal/aodv/ ./internal/routing/... ./internal/olsr/
	$(GO) test -run '^$$' -bench 'ScheduleTransient|SweepSerial' -benchtime 10x \
		./internal/sim/ ./internal/sweep/

# CPU + allocation profiles of a reduced Table 1 run, written to
# profiles/ (gitignored); inspect with `go tool pprof`.
profile:
	mkdir -p profiles
	$(GO) run ./cmd/ldrbench -exp table1 -trials 1 -simtime 60s \
		-cpuprofile profiles/ldrbench.cpu.pprof -memprofile profiles/ldrbench.mem.pprof
	@echo "profiles written: profiles/ldrbench.cpu.pprof profiles/ldrbench.mem.pprof"
	@echo "inspect: go tool pprof -top profiles/ldrbench.mem.pprof"

# CPU profile of one cell — "where did the cell go" without a throwaway
# main.go. The defaults are the dense100 OLSR cell of the repository
# benchmark; the paper's terrain follows NODES (1500×300 m at 50,
# 2200×600 m at 100). With FAULT set it is the audited chaos cells of that
# fault profile and PROTO instead (50 nodes, pause 0 and static, serial),
# through ldrchaos. Prints the top of the profile and leaves the binary
# and the profile in profiles/ for `go tool pprof -list`.
#   make profile-cell PROTO=olsr NODES=100 SIMTIME=330s
#   make profile-cell FAULT=lossy PROTO=ldr SIMTIME=30s
PROTO ?= olsr
NODES ?= 100
SIMTIME ?= 330s
FAULT ?=
PROFILE_CMD = $(if $(FAULT),ldrchaos,ldrsim)
PROFILE_CELL = $(if $(FAULT),-profiles $(FAULT) -protocols $(PROTO) -trials 1 -workers 1,\
	-proto $(PROTO) -nodes $(NODES) $(if $(filter 100,$(NODES)),-width 2200 -height 600) -flows 10 -pause 0s)
profile-cell:
	mkdir -p profiles
	$(GO) build -o profiles/$(PROFILE_CMD) ./cmd/$(PROFILE_CMD)
	profiles/$(PROFILE_CMD) $(PROFILE_CELL) -simtime $(SIMTIME) -cpuprofile profiles/cell.cpu.pprof
	$(GO) tool pprof -top -nodecount 30 profiles/$(PROFILE_CMD) profiles/cell.cpu.pprof

# CI's bench-gate job. Two families are gated against their committed
# BENCH_*.json baseline (sweep/radio/OLSR and modelcheck: a >10% B/op or
# allocs/op regression fails the target and leaves the baseline
# untouched). The adversary and chaos families record delivery, overhead
# and ns/op figures only — no B/op or allocs/op, so there is nothing for
# -maxregress to compare — and are re-run here so that they still build,
# run and pass their own in-benchmark assertions; they gate nothing else.
bench-gate: bench-sweep bench-modelcheck bench-adversary bench-chaos

# One benchmark per paper table/figure plus the engine and coordination
# benches, at reduced scale.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# The refactoring oracle as one command: run the repository benchmark
# (benchmark/, BENCHMARK.json) on BASE, unpacked with `git archive` into a
# temporary directory (under TMPDIR; nothing is added to .git), and on
# this tree, then compare — scenario.digest and every exact counter must
# match, every end-to-end metric must stay inside its bound. No CI job
# gates on it: a deliberate behaviour fix legitimately moves the digest.
#   make bench-compare BASE=<ref> [SEED=1] [SCALE=full|tiny]
SEED ?= 1
SCALE ?= full
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<ref> [SEED=1] [SCALE=full|tiny]" >&2; exit 2; }
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && mkdir "$$d/base" && \
	git archive $(BASE) | tar -x -C "$$d/base" && \
	(cd "$$d/base" && $(GO) run ./benchmark -workload all -seed $(SEED) -scale $(SCALE) -out "$$d/base.json") && \
	$(GO) run ./benchmark -workload all -seed $(SEED) -scale $(SCALE) -out "$$d/head.json" && \
	$(GO) run ./benchmark -compare "$$d/base.json" "$$d/head.json"

# Non-test, non-generated Go lines per package: ROADMAP aim 2 counts net
# deleted lines as a success metric, and this is the count it means.
loc:
	@$(GO) list -f '{{.ImportPath}} {{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}' ./... | \
	while read pkg files; do \
		[ -n "$$files" ] || continue; \
		n=$$(grep -L '^// Code generated .* DO NOT EDIT' $$files | xargs cat | wc -l); \
		printf '%6d %s\n' $$n $$pkg; \
	done

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/invariants
	$(GO) run ./examples/rescue
	$(GO) run ./examples/fleet
	$(GO) run ./examples/coordination

# Reduced-scale regeneration of every table and figure (minutes).
experiments:
	$(GO) run ./cmd/ldrbench -exp all

# The paper's full setup (many hours on one core).
experiments-full:
	$(GO) run ./cmd/ldrbench -exp all -trials 10 -simtime 900s

clean:
	$(GO) clean ./...
