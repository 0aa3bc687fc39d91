GO ?= go

.PHONY: all build vet fmt-check vuln test race check fuzz-check load-check perfbench-check results-check bench bench-all experiments clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any Go file in the tree (the perfbench module
# included) is not gofmt-clean, listing the offenders.
fmt-check:
	@out=$$(gofmt -l .) && if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# vuln is best-effort: govulncheck is not baked into the toolchain image and
# the gate must stay green offline, so a missing binary (or a network
# failure reaching the vuln DB) degrades to a notice instead of breaking
# check. Run it for real where the tool and network exist.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "govulncheck failed (offline?); continuing — best-effort gate"; \
	else \
		echo "govulncheck not installed; skipping (best-effort gate)"; \
	fi

test:
	$(GO) test ./...

# The race detector is the gate for every concurrent layer: the engine's run
# pipeline (decoder, shards, merger), the Fleet's concurrent runs over a
# shared decode, the sched decision cache, the telemetry instruments, the
# run journal and live hub, and the run server. It runs every test of every
# package, so no subset of them needs a gate of its own.
race:
	$(GO) test -race ./...

# fuzz-check smoke-runs every fuzz target briefly: long enough to catch a
# parser regression on the seed corpus and its near mutations, short enough
# for CI. Deep campaigns run the same targets with a larger -fuzztime.
FUZZTIME ?= 5s
fuzz-check:
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzReadLongFormat$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzCSVRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzCSVSourceMatchesReadCSV$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzParseFloat$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sched -run '^$$' -fuzz '^FuzzDecideBatchEquivalence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzShardEquivalence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./cmd/h2psim -run '^$$' -fuzz '^FuzzResumeCheckpoint$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzParseRunRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs -run '^$$' -fuzz '^FuzzReadJournal$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/env -run '^$$' -fuzz '^FuzzEnvProfile$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fault -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fault -run '^$$' -fuzz '^FuzzTEGTable$$' -fuzztime $(FUZZTIME)
	$(GO) test ./cmd/h2pbenchdiff -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)

# load-check runs the deterministic multi-tenant load profile against a
# spawned in-process server: 8 tenants x 55 submissions each against a
# 50-token no-refill allowance must yield exactly 50 accepted and 5 rejected
# per tenant, with every accepted run's result hash verified against a locally
# computed reference (zero mismatches, zero dropped runs) — the quota
# arithmetic is timing-independent by construction, so the assertion is exact.
load-check:
	$(GO) run ./cmd/h2pload -spawn -tenants 8 -runs 55 \
		-servers 60 -intervals 24 -submit-burst 50 \
		-expect-accepted 50 -expect-rejected 5

# perfbench-check vets and tests the benchmark driver. perfbench is its own
# Go module (it replaces the simulator with ../), so `go build ./...` at the
# root never compiles it; this gate catches a change to the simulator's
# exported API that would break it.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# results-check regenerates every experiment table at the paper's scale into
# a temporary directory and diffs each CSV against the committed results/
# (`make experiments` writes them there), so a table that drifted, or one
# that exists but was never committed, fails the gate.
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		$(GO) run ./cmd/h2pbench -exp all -csv "$$tmp" >/dev/null && \
		diff -r -x '*.txt' -x '*.md' results "$$tmp" && \
		echo "results-check: every CSV in results/ matches a fresh run"

# check is the tier-1 gate: vet + gofmt + best-effort vuln scan + build +
# race-enabled tests of every package + the fuzz smoke runs + the
# multi-tenant load profile + the benchmark driver's vet and tests + the
# committed experiment tables.
check: vet fmt-check vuln build race fuzz-check load-check perfbench-check results-check

# bench tracks the decision hot path across PRs: the Decision* benchmarks in
# internal/lookup (the Fig. 13 plane query and the per-server batch blend)
# and internal/sched (Choose misses and hits, Decide, DecideBatch) run with
# -benchmem and land in BENCH_decision.json as a test2json stream, and the
# end-to-end IntervalThroughput* benchmarks in internal/core (one control
# interval over 10k-server columns through the batched block step, churn and
# warm cache regimes, per-class sweep) land in BENCH_interval.json. Render or compare snapshots with `go run
# ./cmd/h2pbenchdiff BENCH_decision.json [other.json]`; add `-threshold 10`
# to fail on >10% ns/op regressions.
# The ShardScaling benchmark runs the full month-scale trace once per rung of
# the Workers ladder (-benchtime 1x), landing the multicore scaling curve in
# BENCH_shard.json; h2pbenchdiff renders every unit including the servers/s
# throughput column, and `h2pbenchdiff -threshold 10 old.json BENCH_shard.json`
# gates throughput drops as well as ns/op growth.
# The CSVSource benchmark (index and decode of a generated 2k-server drastic
# CSV, in MB/s and values/s) lands in BENCH_trace.json.
# Each artifact opens with the h2p_bench_env header line (`h2pbench
# -bench-env`): go version, GOMAXPROCS, CPU model, commit. `go run` stamps
# no VCS revision by default, so the header lines build with
# -buildvcs=true. h2pbenchdiff reads the header back and warns when two
# compared artifacts come from different environments, so hardware deltas
# are not mistaken for regressions.
bench:
	$(GO) run -buildvcs=true ./cmd/h2pbench -bench-env > BENCH_decision.json
	$(GO) test -run '^$$' -bench Decision -benchmem -count=1 -json \
		./internal/lookup ./internal/sched >> BENCH_decision.json
	$(GO) run -buildvcs=true ./cmd/h2pbench -bench-env > BENCH_interval.json
	$(GO) test -run '^$$' -bench IntervalThroughput -benchmem -count=1 -json \
		./internal/core >> BENCH_interval.json
	$(GO) run -buildvcs=true ./cmd/h2pbench -bench-env > BENCH_shard.json
	$(GO) test -run '^$$' -bench ShardScaling -benchmem -benchtime 1x -count=1 -json \
		./internal/core >> BENCH_shard.json
	$(GO) run -buildvcs=true ./cmd/h2pbench -bench-env > BENCH_trace.json
	$(GO) test -run '^$$' -bench '^BenchmarkCSVSource$$' -benchmem -count=1 -json \
		./internal/trace >> BENCH_trace.json
	$(GO) run ./cmd/h2pbenchdiff BENCH_decision.json
	$(GO) run ./cmd/h2pbenchdiff BENCH_interval.json
	$(GO) run ./cmd/h2pbenchdiff BENCH_shard.json
	$(GO) run ./cmd/h2pbenchdiff BENCH_trace.json

bench-all:
	$(GO) test -run '^$$' -bench . -benchmem ./...

experiments:
	$(GO) run ./cmd/h2pbench -exp all -csv results

# clean leaves results/ alone: the experiment tables are committed, and
# `make experiments` regenerates them.
clean:
	$(GO) clean ./...
	rm -f BENCH_decision.json BENCH_interval.json BENCH_shard.json BENCH_trace.json
