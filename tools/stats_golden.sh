#!/usr/bin/env bash
# Diff the full ffvm statsReport() dump of one workload per timed
# model against the committed goldens in tools/golden/, so any
# unintended change to model behaviour or stat rendering fails loudly
# (regenerate deliberately with the printed command).
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
trap 'rm -f "$got"' EXIT

stats_workload="181.mcf"
stats_scale=5
for model in base 2P 2Pre runahead; do
    golden="$golden_dir/${stats_workload}_${model}.stats"
    if [ ! -f "$golden" ]; then
        echo "stats_golden: missing golden $golden" >&2
        exit 1
    fi
    "$ffvm" --workload "$stats_workload" --scale "$stats_scale" \
        --model "$model" --stats > "$got"
    if ! diff -u "$golden" "$got"; then
        echo "stats_golden: FAIL — $model statsReport differs from" \
             "$golden (regenerate with: $ffvm --workload" \
             "$stats_workload --scale $stats_scale --model $model" \
             "--stats > $golden)" >&2
        exit 1
    fi
done

echo "stats_golden: statsReport goldens match for base/2P/2Pre/runahead"
