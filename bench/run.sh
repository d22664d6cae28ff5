#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the command BENCHMARK.json
# names. Run from the root of a checkout:
#
#   bash bench/run.sh --workload local-run --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays inside the checkout, under
# .bench_build/: the Go build cache, the toolchain's temporary and
# per-user files, and the binary. The first run in a checkout compiles the standard
# library into that cache; later runs relink only what changed.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # telemetry counters land here, not in $HOME
export GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local

go build -C "$root/bench" -o "$build/bench" .
# A compilation leaves the page cache full of dirty pages, and their
# write-back would share the disk with the first repetitions' fsyncs.
sync -f "$build"
exec "$build/bench" "$@"
