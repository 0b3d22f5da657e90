#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout's sources and runs it.
# Run from the repository root; every argument is passed through, e.g.
#
#   bash campaignbench/run.sh --workload golden-sweep --seed 0 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout, so the benchmark writes nothing outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/campaignbench" && go build -o "$out/campaignbench" .) >&2
exec "$out/campaignbench" "$@"
