#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload tablei --seed 1 --seconds 20 --trace 0
#
# Build artifacts (binary, Go build cache) and result files go under
# .bench_build/ in the repository root (or $CARGO_TARGET_DIR when set), so
# a run writes nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
# Go caches and config (telemetry counters included) stay in the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/e2ebench" -o "$build/e2ebench" .
cd "$root"
# Process start, charged to set-up: exec the binary through runtime and
# package init to main, 31 times (a few milliseconds each, with
# scheduling jitter), and pass the median (microseconds).
export LC_ALL=C # EPOCHREALTIME with a '.' separator
probes=()
for _ in $(seq 31); do
	t0=${EPOCHREALTIME/./}
	"$build/e2ebench" startup
	t1=${EPOCHREALTIME/./}
	probes+=($((t1 - t0)))
done
E2EBENCH_STARTUP_US=$(printf '%s\n' "${probes[@]}" | sort -n | sed -n 16p) \
	exec "$build/e2ebench" -out "$build/e2ebench-out" "$@"
