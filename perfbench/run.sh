#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload sim --seed 1 --seconds 30 --trace 0
#
# The build cache, temporary files and the binary stay in .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
