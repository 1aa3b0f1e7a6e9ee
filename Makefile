# Standard pre-merge gate: `make check` must be green before merging.
GO ?= go
FUZZTIME ?= 10s

.PHONY: check vet build test race bench bench-record bench-gate xcheck fuzz corpus chaos

check: vet build race xcheck fuzz bench

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Record the performance trajectory: run the hot-path benchmarks at a
# real benchtime and parse them into BENCH_FILE (see EXPERIMENTS.md
# for the format). Compare against the committed BENCH_PR*.json files
# to see drift across PRs. Both targets run at GOMAXPROCS 1 (-cpu 1):
# allocs/op depends on the proc count (parallel code allocates per
# worker), so recording and gating must use the same one, whatever
# the host's core count.
BENCH_FILE ?= BENCH_PR10.json
BENCH_PKGS ?= ./internal/obs ./internal/portal ./internal/route ./internal/mooc ./internal/place ./internal/linsolve ./internal/techmap
BENCH_TIME ?= 0.5s
bench-record:
	$(GO) test -cpu 1 -bench=. -benchmem -benchtime=$(BENCH_TIME) -timeout 30m $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchrecord -out $(BENCH_FILE)

# Allocation-regression gate: re-measure the benchmarks and fail if
# any allocates more per op than the committed trajectory file records
# (ns/op is never gated — it moves with machine load; allocs/op is
# exact). The gate MUST use the same BENCH_TIME the baseline was
# recorded with: allocs/op includes sync.Pool warm-up amortized over
# the iteration count, so measuring at a different benchtime (say 1x)
# reports setup allocations as steady state and false-positives.
BENCH_BASELINE ?= $(BENCH_FILE)
bench-gate:
	$(GO) test -cpu 1 -bench=. -benchmem -benchtime=$(BENCH_TIME) -timeout 30m $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchrecord -compare $(BENCH_BASELINE)

# Replay the golden differential-testing corpus (byte-identical
# regeneration + zero oracle mismatches).
xcheck:
	$(GO) test ./internal/xcheck -run Corpus -count=1

# Short fuzzing pass over the cross-engine oracles. Go runs one fuzz
# target per invocation, so each gets its own.
fuzz:
	$(GO) test ./internal/xcheck -run=^$$ -fuzz=FuzzCoverMinimize -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/xcheck -run=^$$ -fuzz=FuzzSATvsBDD -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/xcheck -run=^$$ -fuzz=FuzzRoute$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/xcheck -run=^$$ -fuzz=FuzzPRoute -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/xcheck -run=^$$ -fuzz=FuzzPAnneal -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/portal -run=^$$ -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME)

# Regenerate testdata/xcheck from the pinned master seed.
corpus:
	$(GO) run ./cmd/xcheckgen -out testdata/xcheck

# Long seeded chaos sweeps over the portal job pool (outside the
# default `make check` budget): the mixed-fault storm, the hot-user
# fairness storm against the async ticket lifecycle, and the restart
# chaos sweep that crashes the ticket journal mid-record and recovers.
# Override the seed count with CHAOS_SEEDS=n.
CHAOS_SEEDS ?= 20
chaos:
	PORTAL_CHAOS=1 PORTAL_CHAOS_SEEDS=$(CHAOS_SEEDS) \
		$(GO) test -race ./internal/portal -run 'TestChaosSweep|TestChaosHotUserStormSweep|TestRestartChaosSweep' -count=1 -v -timeout 20m
