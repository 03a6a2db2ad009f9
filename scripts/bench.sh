#!/usr/bin/env bash
# bench.sh — run the hot-path benchmarks and record the results as
# BENCH_<date>.json in the repo root, so the performance trajectory of
# the estimation kernel is tracked in-tree PR over PR.
#
# Usage:
#   scripts/bench.sh                 # default benchmark set, 3×2s each
#   scripts/bench.sh compare         # fresh run vs latest committed
#                                    # BENCH_*.json; exit 1 on >15%
#                                    # regression of any benchmark
#   BENCH='T2|Engine' scripts/bench.sh
#   COUNT=5 BENCHTIME=5s OUT=/tmp/b.json scripts/bench.sh
#   THRESHOLD_PCT=25 scripts/bench.sh compare
#   OUT=fresh.json scripts/bench.sh compare   # keep the fresh JSON
#                                             # (nightly CI uploads it)
#
# The JSON records, per benchmark, the median ns/op over COUNT runs —
# the point estimate compare mode diffs, robust to one-off stalls in a
# way best-of is not — plus the best (minimum) and every individual run
# for spread inspection. Benchmarks whose first-pass runs spread more
# than SPREAD_PCT (default 15%) around the median are rerun with COUNT
# extra iterations, and all runs pooled, before the median is taken.
# Compare mode prefers medians and falls back to best_ns_per_op for
# baselines recorded before medians existed; only benchmarks present in
# both files are compared, improvements are reported but never fail the
# run.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=${1:-record}

BENCH=${BENCH:-'BenchmarkT2SingleVertex|BenchmarkT9Weighted|BenchmarkEngineBatch32|BenchmarkEngineBatch32Weighted|BenchmarkSequentialBatch32|BenchmarkApplyEdits|BenchmarkSwapGraphWarm|BenchmarkWALAppend|BenchmarkStreamEdits|BenchmarkOverlayBFS|BenchmarkEstimateCoverage|BenchmarkRWBCSolve|BenchmarkEstimateAdaptive|BenchmarkEstimateReadBA10000|BenchmarkBFSHybrid|BenchmarkBFSClassic|BenchmarkRankProgressiveTop5|BenchmarkRankRoadTop10|BenchmarkBrandesPassRoad|BenchmarkBrandesPassBA2000'}
BENCHTIME=${BENCHTIME:-2s}
COUNT=${COUNT:-3}
THRESHOLD_PCT=${THRESHOLD_PCT:-15}
SPREAD_PCT=${SPREAD_PCT:-15}

case "$MODE" in
record)
    OUT=${OUT:-BENCH_$(date +%Y-%m-%d).json}
    ;;
compare)
    # Baseline: the newest committed BENCH_*.json (date-stamped names
    # sort chronologically).
    BASELINE=$(git ls-files 'BENCH_*.json' | sort | tail -n 1)
    if [ -z "$BASELINE" ]; then
        # A fresh clone (or a history rewrite) has nothing to diff
        # against. That is not a failure of the code under test — warn
        # loudly so CI logs show the gap, and succeed so the first PR
        # of a new line can land and record the baseline.
        echo "bench.sh compare: WARNING: no committed BENCH_*.json baseline found;" >&2
        echo "bench.sh compare: nothing to compare against — skipping (run 'scripts/bench.sh' to record one)" >&2
        exit 0
    fi
    # A caller-supplied OUT is kept (CI uploads the fresh numbers as an
    # artifact); otherwise write to a temp file cleaned up on exit.
    if [ -z "${OUT:-}" ]; then
        OUT=$(mktemp --suffix=.json)
        CLEAN_OUT=$OUT
    fi
    ;;
*)
    echo "bench.sh: unknown mode '$MODE' (want nothing or 'compare')" >&2
    exit 2
    ;;
esac

TMP=$(mktemp)
trap 'rm -f "$TMP" "$TMP.spread" "$TMP.base" "$TMP.fresh" ${CLEAN_OUT:-}' EXIT

echo "running: go test -run '^$' -bench '$BENCH' -benchtime $BENCHTIME -count $COUNT ." >&2
go test -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$TMP" >&2

# High-spread benchmarks get COUNT extra runs pooled in before the
# median is taken: (max - min) / median > SPREAD_PCT on the first pass.
awk -v spread="$SPREAD_PCT" '
/^Benchmark/ && /ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name) # strip GOMAXPROCS suffix (-bench matches without it)
    k = vn[name] += 1
    v[name, k] = $3 + 0
    if (!(name in seen)) { seen[name] = 1; order[++n] = name }
}
END {
    for (i = 1; i <= n; i++) {
        name = order[i]
        cnt = vn[name]
        # insertion sort of this benchmark runs
        for (a = 1; a <= cnt; a++) s[a] = v[name, a]
        for (a = 2; a <= cnt; a++) {
            x = s[a]
            for (b = a - 1; b >= 1 && s[b] > x; b--) s[b + 1] = s[b]
            s[b + 1] = x
        }
        med = (cnt % 2) ? s[(cnt + 1) / 2] : (s[cnt / 2] + s[cnt / 2 + 1]) / 2
        if (med > 0 && (s[cnt] - s[1]) / med * 100 > spread) {
            # -bench matches each slash-separated element separately, so
            # anchor every element: A/B -> ^A$/^B$
            gsub(/\//, "$/^", name)
            print "^" name "$"
        }
    }
}' "$TMP" > "$TMP.spread"

if [ -s "$TMP.spread" ]; then
    RERUN=$(paste -sd'|' "$TMP.spread")
    echo "rerunning high-spread benchmarks (> ${SPREAD_PCT}% first-pass spread) with $COUNT extra runs: $RERUN" >&2
    go test -run '^$' -bench "$RERUN" -benchtime "$BENCHTIME" -count "$COUNT" . | tee -a "$TMP" >&2
fi

awk -v date="$(date +%Y-%m-%d)" \
    -v goversion="$(go version | awk '{print $3}')" \
    -v benchtime="$BENCHTIME" -v count="$COUNT" '
/^Benchmark/ && /ns\/op/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name) # strip GOMAXPROCS suffix
    ns = $3 # keep the integer as a string: awk printf/OFMT mangle >2^31
    if (!(name in best) || ns + 0 < best[name] + 0) best[name] = ns
    k = vn[name] += 1
    v[name, k] = ns + 0
    if (name in runs) { runs[name] = runs[name] ", " ns } else {
        runs[name] = ns
        order[++n] = name
    }
}
END {
    printf "{\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"count\": %d,\n", count
    printf "  \"benchmarks\": {\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        cnt = vn[name]
        for (a = 1; a <= cnt; a++) s[a] = v[name, a]
        for (a = 2; a <= cnt; a++) {
            x = s[a]
            for (b = a - 1; b >= 1 && s[b] > x; b--) s[b + 1] = s[b]
            s[b + 1] = x
        }
        med = (cnt % 2) ? s[(cnt + 1) / 2] : (s[cnt / 2] + s[cnt / 2 + 1]) / 2
        # %.0f, not %d: mawk clamps %d at 2^31-1 and the slow benchmarks
        # run longer than that in ns.
        printf "    \"%s\": {\"median_ns_per_op\": %.0f, \"best_ns_per_op\": %s, \"runs_ns_per_op\": [%s]}%s\n", \
            name, med, best[name], runs[name], (i < n ? "," : "")
    }
    printf "  }\n}\n"
}' "$TMP" > "$OUT"

echo "wrote $OUT" >&2

if [ "$MODE" = compare ]; then
    echo "comparing against $BASELINE (threshold ${THRESHOLD_PCT}%, medians)" >&2
    # Both files are this script's own output: one line per benchmark
    # with best_ns_per_op always present and median_ns_per_op since
    # medians were introduced. Prefer the median; old baselines without
    # one fall back to best.
    extract() {
        awk -F'"' '/"best_ns_per_op"/ {
            name = $2
            line = $0
            if (line ~ /"median_ns_per_op"/) {
                sub(/.*"median_ns_per_op": */, "", line)
            } else {
                sub(/.*"best_ns_per_op": */, "", line)
            }
            sub(/[,}].*/, "", line)
            print name, line
        }' "$1"
    }
    extract "$BASELINE" > "$TMP.base"
    extract "$OUT" > "$TMP.fresh"
    RESULT=0
    FOUND=0
    while read -r name fresh; do
        base=$(awk -v n="$name" '$1 == n {print $2}' "$TMP.base")
        if [ -z "$base" ]; then
            echo "  $name: no baseline entry, skipped" >&2
            continue
        fi
        FOUND=1
        # Integer-safe percent delta: positive = slower than baseline.
        delta=$(awk -v f="$fresh" -v b="$base" 'BEGIN { printf "%.1f", (f - b) / b * 100 }')
        verdict=ok
        if awk -v f="$fresh" -v b="$base" -v t="$THRESHOLD_PCT" \
               'BEGIN { exit !(f > b * (1 + t / 100)) }'; then
            verdict="REGRESSION"
            RESULT=1
        fi
        printf '  %-28s base %14s ns/op  fresh %14s ns/op  %+6s%%  %s\n' \
            "$name" "$base" "$fresh" "$delta" "$verdict" >&2
    done < "$TMP.fresh"
    if [ "$FOUND" = 0 ]; then
        echo "bench.sh compare: no common benchmarks between run and baseline" >&2
        exit 2
    fi
    if [ "$RESULT" -ne 0 ]; then
        echo "bench.sh compare: regression beyond ${THRESHOLD_PCT}% detected" >&2
    fi
    exit "$RESULT"
fi
