#!/usr/bin/env bash
# Diff the full ffvm --stats dump (sim::statsReport) of one workload
# per timed model against the committed goldens in tools/golden/, so
# any unintended change to model behaviour or stat rendering fails
# loudly (regenerate deliberately with the printed command).
#
# Two passes: a cold one with the result cache off, then a warm one,
# since a --stats run is cached like a plain run. The warm pass runs
# each model twice against one fresh cache directory; the second run
# must be answered from the cache and, without its cache line, match
# the same golden.
#
# Usage: tools/stats_golden.sh <ffvm-path>
set -euo pipefail

ffvm="${1:?usage: stats_golden.sh <ffvm-path>}"
golden_dir="$(dirname "$0")/golden"

if [ ! -x "$ffvm" ]; then
    echo "stats_golden: $ffvm is not built" >&2
    exit 1
fi

got="$(mktemp)"
cache="$(mktemp -d)"
trap 'rm -rf "$got" "$cache"' EXIT

stats_workload="181.mcf"
stats_scale=5
run_stats() {
    "$ffvm" --workload "$stats_workload" --scale "$stats_scale" \
        --model "$1" --stats
}

for model in base 2P 2Pre runahead; do
    golden="$golden_dir/${stats_workload}_${model}.stats"
    if [ ! -f "$golden" ]; then
        echo "stats_golden: missing golden $golden" >&2
        exit 1
    fi
    FF_CACHE_DIR= run_stats "$model" > "$got"
    if ! diff -u "$golden" "$got"; then
        echo "stats_golden: FAIL — $model statsReport differs from" \
             "$golden (regenerate with: FF_CACHE_DIR= $ffvm --workload" \
             "$stats_workload --scale $stats_scale --model $model" \
             "--stats > $golden)" >&2
        exit 1
    fi
done

hit="cache: hits=1 misses=0"
for model in base 2P 2Pre runahead; do
    golden="$golden_dir/${stats_workload}_${model}.stats"
    FF_CACHE_DIR="$cache" run_stats "$model" > /dev/null
    FF_CACHE_DIR="$cache" run_stats "$model" > "$got"
    if ! grep -qxF "$hit" "$got"; then
        echo "stats_golden: FAIL — the second $model --stats run was" \
             "not answered from the cache (expected '$hit')" >&2
        exit 1
    fi
    if ! grep -vxF "$hit" "$got" | diff -u "$golden" -; then
        echo "stats_golden: FAIL — the cached $model statsReport" \
             "differs from $golden" >&2
        exit 1
    fi
done

echo "stats_golden: statsReport goldens match for base/2P/2Pre/runahead," \
     "cold and cached"
