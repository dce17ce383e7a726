#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs one
# workload.  Run from the repository root:
#
#   bash perfbench/run.sh --workload greedd-solve --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, temp files,
# the binary, trace spans) stays under $CARGO_TARGET_DIR, default
# .bench_build, relative to the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/perfbench"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .) >&2
exec "$build/perfbench/perfbench" --outdir "$build/perfbench" "$@"
