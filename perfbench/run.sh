#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload irregular --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write lands under .bench_build/ in the
# current directory (Go build cache, temp result caches, trace files).
set -euo pipefail

root=$(pwd)
# The build directory: $CARGO_TARGET_DIR when set, else .bench_build.
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# No VCS stamping: the checkout the benchmark runs in need not be a git
# repository.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

if ! go -C "$root/perfbench" build -o "$build/perfbench" . >&2; then
	echo "perfbench: build failed (the benchmark needs the dramlat module one directory up)" >&2
	exit 2
fi
exec "$build/perfbench" --workdir "$build" "$@"
