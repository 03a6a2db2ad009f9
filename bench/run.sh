#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs it with the given
# arguments. Run from the repository root:
#
#   bash bench/run.sh --workload estimate-ba --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare A.json... -- B.json...
#
# The Go build cache, binaries, server logs, data directories and results
# files all stay under .bench_build/ in the repository root.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"
