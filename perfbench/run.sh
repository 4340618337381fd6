#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given flags,
# e.g.: bash perfbench/run.sh --workload cold-analysis --seed 1 --seconds 12 --trace 0
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ (Go build cache, temp files, binary, cache
# dirs and result records); nothing is fetched.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d perfbench ]; then
	echo "perfbench: run from the root of a cuisines checkout" >&2
	exit 1
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=vendor GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off GOPATH="$out/gopath"
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
