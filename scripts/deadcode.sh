#!/usr/bin/env bash
# deadcode.sh — list the functions under internal/ that no binary links.
#
# Builds every binary of the repository with inlining off (so a small
# function that is called still shows up as a symbol): the five
# commands, the seven examples, the benchmark program and its tracer.
# It then reads their symbol tables with `go tool nm` and prints
# `path:line symbol` for each function or method declared in a non-test
# file under internal/ that none of them contains. It exits 1 when any
# printed name is not on the allowlist below, so unreachable code
# cannot grow back.
#
# Usage: scripts/deadcode.sh        (needs only the Go toolchain)
set -euo pipefail
cd "$(dirname "$0")/.."

# Kept although no binary links them: a test in another package needs
# each. One shell pattern per line (a literal * is written \*),
# matched against the full symbol, under a comment naming the test
# that needs it.
allowlist=(
    # store's durable_test and durable's killpoint_test inject faults through it.
    'bcmh/internal/durable.*FaultFS*'
    'bcmh/internal/durable.(\*faultFile).*'
    'bcmh/internal/durable.Fault.String'
    # sssp's dijkstra_test, mcmc's rows_test, rank's rank_test, store's server_test.
    'bcmh/internal/graph.WithIntegerWeights'
    # store's TestStreamOverlayCompaction waits on them.
    'bcmh/internal/graph.(\*Graph).HasOverlay'
    'bcmh/internal/graph.(\*Graph).OverlayEdits'
    # the root package's BenchmarkRankUniformTop5.
    'bcmh/internal/rank.Uniform'
    # graph's overlay_test and sssp's reseat_test draw random edits with it.
    'bcmh/internal/rng.(\*RNG).Uint64n'
    # the root package's BenchmarkBFSClassic.
    'bcmh/internal/sssp.NewBFSClassic'
    # rank's rank_test scores rankings with it.
    'bcmh/internal/stats.Inversions'
    # sampler's sampler_test.
    'bcmh/internal/stats.MeanAbsError'
    'bcmh/internal/stats.Median'
    # Median's implementation.
    'bcmh/internal/stats.Quantile'
    # mcmc's single_test and stress_test, sampler's sampler_test (StdDev is
    # StdErr's implementation).
    'bcmh/internal/stats.(\*Welford).StdErr'
    'bcmh/internal/stats.(\*Welford).StdDev'
)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for p in ./cmd/* ./examples/*; do
    go build -gcflags=all=-l -o "$tmp/bin/$(basename "$p")" "$p"
done
go -C bench build -gcflags=all=-l -o "$tmp/bin/bench" .
go -C bench build -gcflags=all=-l -o "$tmp/bin/tracer" ./layers/tracer

# Linked symbols, with generic instantiations ([...]) and closure,
# goroutine-wrapper and method-value suffixes stripped back to the
# declaring function.
for b in "$tmp"/bin/*; do
    go tool nm "$b"
done | awk '$2 == "T" || $2 == "t" { print $3 }' | grep '^bcmh/internal/' |
    sed -E 's/\[[^]]*\]//g; s/-fm$//; s/(\.(func|gowrap|deferwrap)[0-9]+)+(\.[0-9]+)*$//' |
    sort -u > "$tmp/linked"

# Declared functions, as the symbol the linker would give each: pkg.F,
# pkg.T.M for a value receiver, pkg.(*T).M for a pointer receiver.
find internal -name '*.go' ! -name '*_test.go' | sort | while read -r f; do
    awk -v pkg="bcmh/$(dirname "$f")" -v file="$f" '
    /^func / {
        decl = substr($0, 6)
        if (substr(decl, 1, 1) == "(") {
            recv = decl; sub(/\).*/, "", recv); sub(/^\(/, "", recv)
            n = split(recv, parts, " "); typ = parts[n]; sub(/\[.*$/, "", typ)
            name = decl; sub(/^\([^)]*\) */, "", name); sub(/[[(].*/, "", name)
            sym = (substr(typ, 1, 1) == "*") ? pkg ".(" typ ")." name : pkg "." typ "." name
        } else {
            name = decl; sub(/[[(].*/, "", name)
            sym = pkg "." name
        }
        print file ":" NR " " sym
    }' "$f"
done > "$tmp/declared"

status=0
while read -r loc sym; do
    grep -qxF "$sym" "$tmp/linked" && continue
    allowed=
    for pat in "${allowlist[@]}"; do
        # shellcheck disable=SC2053 # $pat is a glob on purpose
        if [[ $sym == $pat ]]; then
            allowed=1
            break
        fi
    done
    if [ -n "$allowed" ]; then
        echo "$loc $sym (allowlisted)"
    else
        echo "$loc $sym"
        status=1
    fi
done < "$tmp/declared"
exit $status
