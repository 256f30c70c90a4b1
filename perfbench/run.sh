#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, traces, per-op sweep caches) goes under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/perfbench"

# Keep the toolchain's caches, temp files and telemetry inside the checkout,
# and never reach a network.
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp XDG_CONFIG_HOME=$out/config
export GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off
export GIT_CEILING_DIRECTORIES=$(dirname "$root")

bin=$out/perfbench/perfbench
(cd "$here" && go build -o "$bin" .) >&2

PERFBENCH_GIT=$(git -C "$root" describe --always --dirty 2>/dev/null || echo none) \
	exec "$bin" -out "$out/perfbench" "$@"
