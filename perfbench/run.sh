#!/usr/bin/env bash
# Builds the benchmark and the program binaries it drives from the checkout
# it is run in, then hands every argument to the benchmark:
#
#   bash perfbench/run.sh --workload replay-csv --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and the
# benchmark's fixtures and scratch files all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
# The go command keeps its telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
go build -o "$out/bin/" ./cmd/h2psim ./cmd/h2pserved ./cmd/h2pbench >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
