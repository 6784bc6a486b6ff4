#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on.
# Run from the repository root:
#
#   bash benchmark/run.sh -workload fleet-sweep -seed 1 -seconds 10 -trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# binary, set-up caches) stays under .bench_build/ in the current
# directory, and the build never touches the network. Build output goes to standard error, so the last line of
# standard output is always the benchmark's own result line.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export TMPDIR="$out/tmp"

(
	cd "$root/benchmark"
	HOME="$out/home" GOENV=off GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" \
		GOPATH="$out/go-path" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$out/benchmark" .
) >&2

exec "$out/benchmark" "$@"
