# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check ci-quick ci-full build test vet flags-check race fuzz-smoke fuzz-radio chaos adversary modelcheck modelcheck-smoke modelcheck-seed resume-smoke bench-smoke bench-gate bench-all bench-compare loc profile profile-cell examples experiments experiments-full clean

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
# non-default radio) under the race detector, then 20 s of
# native fuzzing of FuzzScenario, whose failing input is minimised toward
# the default axes and fewest flows. Then 20 s each of native fuzzing of
# the event queue against its scan-for-minimum model, of OLSR's
# id-indexed link state and of the
# on-demand duplicate cache, buffers and discoveries against the map
# implementations they replaced, of the radio's receiver scan (which
# keeps positions) against brute force and the scan that looked every node
# up, on a moving and on a resting schedule, of the radio's batched, bitset-tracked and addressed delivery
# against per-receiver events, of LoadSpec on hostile seed files, of the
# journal's Open and Put on hostile record files, of the collector's
# per-source fate rows against the map ledger they replaced (a failing input lands in
# the package's testdata/fuzz/ and then fails plain `go test` too).
fuzz-smoke:
	$(GO) test -race -timeout 30m ./internal/conformance/ -run 'TestRegressionSeeds|FuzzScenario'
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzScenario -fuzztime 20s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzEventQueue -fuzztime 20s
	$(GO) test ./internal/olsr -run '^$$' -fuzz FuzzOLSRState -fuzztime 20s
	$(GO) test ./internal/routing/ondemand -run '^$$' -fuzz FuzzOnDemandState -fuzztime 20s
	$(GO) test ./internal/radio -run '^$$' -fuzz FuzzReceiverSet -fuzztime 20s
	$(GO) test ./internal/radio -run '^$$' -fuzz FuzzRestingReceiverSet -fuzztime 20s
	$(GO) test ./internal/radio -run '^$$' -fuzz FuzzBatchedDelivery -fuzztime 20s
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzLoadSpec -fuzztime 20s
	$(GO) test ./internal/resilience -run '^$$' -fuzz FuzzJournalRecord -fuzztime 20s
	$(GO) test ./internal/metrics -run '^$$' -fuzz FuzzFateRows -fuzztime 20s

# Heterogeneous-radio fuzz axis (nightly): the one-way-link regressions
# under the race detector, then 5 min of FuzzScenario, whose corpus holds
# the mixed and asym radio seeds, so the MAC ACK-exhaustion and
# hello-gating paths stay under continuous conservation/census audit.
fuzz-radio:
	$(GO) test -race -timeout 30m ./internal/conformance/ -run 'TestHeteroRadioChaosClean|TestAsymAckExhaustAccounted|TestOLSRAsymNoBlackhole'
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzScenario -fuzztime 5m

# The fault-injection suite under the race detector: the van Glabbeek
# loop reproduction, the per-profile LDR invariant properties, and the
# chaos sweep's worker-count determinism. The closing `ldrbench -exp
# chaos` run is journaled with a watchdog and keep-going quarantine —
# the crash-safe mode the nightly job exercises end to end; its journal
# (and failure manifest plus reproducers, if any cell was quarantined)
# survives in the printed directory for post-mortem.
chaos:
	$(GO) test -race -timeout 60m ./internal/fault/ -run .
	$(GO) test -race -timeout 60m ./internal/experiments/ -run Chaos
	d=$$(mktemp -d)/journal; echo "chaos journal: $$d"; \
	$(GO) run ./cmd/ldrbench -exp chaos -trials 2 -simtime 60s -journal $$d -cell-timeout 10m -keep-going

# Crash-safety smoke: SIGKILL a journaled chaos sweep mid-flight, resume
# it from the journal, and require output byte-identical to an
# uninterrupted run (plus the stale-journal -resume guard). Part of
# `make check`, `make ci-full`, and the nightly job.
resume-smoke:
	GO="$(GO)" sh scripts/resume-smoke.sh

# Bounded model check, full scale (3–4 s on 2 vCPU with a warm build cache):
# exhaustively verify LDR's loop-freedom and (sn, fd) ordering on every
# non-isomorphic connected 3- and 4-node topology (state counts reported,
# zero violations required) and find AODV's loop on each of them. The
# 3-node graphs get the van Glabbeek regime, a crash and a loss in one
# schedule; the 4-node graphs branch far wider, so they trade the loss
# and two levels of depth for tractability. A cell cut at the state cap
# without a violation fails its line. Then make the checker rediscover
# the van Glabbeek AODV loop from scratch and replay both a fresh witness
# and the committed seed to a real routing loop under the full MAC/radio
# simulator. The n4-4 line is the falsifiability control: LDR without its
# §5 stable storage (one volatile crash) must break the ordering.
modelcheck:
	$(GO) run ./cmd/ldrcheck -q -protocol ldr -topology sweep3 -resets 1 -drops 1
	$(GO) run ./cmd/ldrcheck -q -protocol aodv -topology sweep3 -resets 1 -drops 1 -expect-violation
	$(GO) run ./cmd/ldrcheck -q -protocol ldr -topology sweep4 -depth 10 -resets 1
	$(GO) run ./cmd/ldrcheck -q -protocol aodv -topology sweep4 -depth 10 -resets 1 -expect-violation
	$(GO) run ./cmd/ldrcheck -q -protocol ldr -topology n4-4 -vresets 1 -expect-violation
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

# The forged-seqno adversary suite under the race detector: LDR's
# loop-freedom property under each adversary profile, the committed AODV
# forged-seqno loop regression seed, accounting under forgery, the
# receive-side flood limiter, and attacked-run determinism.
adversary:
	$(GO) test -race -timeout 60m ./internal/adversary/ -run .

# Fast allocation-regression smoke: the zero-alloc guards on the event
# loop, the radio's fault-delayed delivery, MAC queue and RTS/CTS
# exchange, LDR round trip, LDR's and AODV's warm model-state
# save/encode/restore and OLSR's warm link-state paths, the model
# checker's warm state key and allocations per state, plus a single tiny
# sweep cell.
# Part of `make check` so steady-state allocation creep fails CI quickly.
bench-smoke:
	$(GO) test -run 'Alloc|ZeroAlloc' ./internal/sim/ ./internal/radio/ ./internal/mac/ ./internal/core/ ./internal/aodv/ ./internal/routing/... ./internal/olsr/ ./internal/modelcheck/
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

# CPU and allocation profiles of one cell — "where did the cell go"
# without a throwaway main.go. The defaults run OLSR on the repository benchmark's dense100
# cell (100 nodes, 10 flows, pause 0, 330 s) at ldrsim's seed, 1: that is
# the benchmark's dense100 LDR seed, while its OLSR cell runs scenario
# seed 2 (cell i of a workload runs seed 1+i). ldrsim's cell takes the
# paper's terrain for NODES (1500×300 m at 50, 2200×600 m at 100), and
# FLOWS and PAUSE set the load and the waypoint pause. The second line
# below is the congested50 LDR cell: 30 flows on a network that pauses
# for the whole run. With FAULT set it is the audited chaos cells of that
# fault profile and PROTO instead (50 nodes, 10 flows, pause 0 and static,
# serial), through `ldrbench -exp chaos`. Prints the top of the CPU
# profile, then the top 15 of the allocation profile by bytes allocated
# over the run (alloc_space: a cost the CPU profile shows only as a few
# per cent of mallocgc and GC), and leaves the binary and both profiles
# in profiles/ for `go tool pprof -list`.
#   make profile-cell PROTO=olsr NODES=100 SIMTIME=330s
#   make profile-cell PROTO=ldr NODES=50 FLOWS=30 PAUSE=240s SIMTIME=240s
#   make profile-cell FAULT=lossy PROTO=ldr SIMTIME=30s
PROTO ?= olsr
NODES ?= 100
FLOWS ?= 10
PAUSE ?= 0s
SIMTIME ?= 330s
FAULT ?=
PROFILE_CMD = $(if $(FAULT),ldrbench,ldrsim)
PROFILE_CELL = $(if $(FAULT),-exp chaos -profiles $(FAULT) -protocols $(PROTO) -trials 1 -workers 1,\
	-proto $(PROTO) -nodes $(NODES) -flows $(FLOWS) -pause $(PAUSE))
profile-cell:
	mkdir -p profiles
	$(GO) build -o profiles/$(PROFILE_CMD) ./cmd/$(PROFILE_CMD)
	profiles/$(PROFILE_CMD) $(PROFILE_CELL) -simtime $(SIMTIME) -cpuprofile profiles/cell.cpu.pprof -memprofile profiles/cell.mem.pprof
	$(GO) tool pprof -top -nodecount 30 profiles/$(PROFILE_CMD) profiles/cell.cpu.pprof
	$(GO) tool pprof -top -nodecount 15 -sample_index alloc_space profiles/$(PROFILE_CMD) profiles/cell.mem.pprof

# One benchmark per paper table/figure plus the engine and coordination
# benches, at reduced scale.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# The refactoring oracle as one command: run the repository benchmark
# (benchmark/, BENCHMARK.json) on BASE, unpacked with `git archive` into a
# temporary directory (under TMPDIR; nothing is added to .git), and on
# this tree, then compare — scenario.digest and every exact counter must
# match, every end-to-end metric must stay inside its bound. bench-gate
# below is what CI runs on it.
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

# The pull-request tier's benchmark gate (CI's bench-gate job):
# bench-compare at full scale, its FAIL lines sorted by
# scripts/bench-gate.sh. A moved scenario.digest or counter, a failed op,
# or alloc_mb, delivery_pct or ctrl_per_delivered out of bounds fails;
# the clocks and peak_rss_mb print and pass. A digest or counter change
# passes when a line added to CHANGES.md since BASE says
# "Behaviour change:".
#   make bench-gate BASE=<ref> [SEED=1]
bench-gate:
	@test -n "$(BASE)" || { echo "usage: make bench-gate BASE=<ref> [SEED=1]" >&2; exit 2; }
	@MAKE="$(MAKE)" sh scripts/bench-gate.sh "$(BASE)"

# Non-test, non-generated Go lines per package, then their total: ROADMAP
# aim 2 counts net deleted lines as a success metric, and this is the
# count it means.
loc:
	@$(GO) list -f '{{.ImportPath}} {{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}' ./... | \
	while read pkg files; do \
		[ -n "$$files" ] || continue; \
		n=$$(grep -L '^// Code generated .* DO NOT EDIT' $$files | xargs cat | wc -l); \
		printf '%6d %s\n' $$n $$pkg; \
	done | awk '{ print; t += $$1 } END { printf "%6d total\n", t }'

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
