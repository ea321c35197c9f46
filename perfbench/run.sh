#!/usr/bin/env bash
# Builds the HVDB benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload data-400 --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache, temporary files) stays
# under .bench_build/ in the current directory. When the perfbench
# directory is copied somewhere without the simulator sources next to
# it, the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/hvdbperf" .)
exec "$build/hvdbperf" "$@"
