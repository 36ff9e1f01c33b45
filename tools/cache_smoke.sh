#!/usr/bin/env bash
# Result-cache smoke: run the Figure-6 sweep twice against a fresh
# temporary cache directory. The first run must populate the cache,
# the second must answer at least 90% of its cells from it, and both
# runs must print bit-identical result tables — a cache hit is only
# correct if it is indistinguishable from re-simulation.
#
# Then three cold --jobs 1 runs race on the same keys in a second
# fresh directory: concurrent writers must not corrupt each other, so
# each must print the same tables, and a warm run must then answer
# every cell from that directory and print them too.
#
# Usage: tools/cache_smoke.sh [bench_fig6-path] [scale-percent]
set -euo pipefail

bench="${1:-build/bench/bench_fig6}"
scale="${2:-10}"
jobs="${FF_JOBS:-$(nproc)}"

if [ ! -x "$bench" ]; then
    echo "cache_smoke: $bench is not built" >&2
    exit 1
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cache_dir="$work/cache"
race_dir="$work/race"
cold_table="$work/cold.txt"
warm_table="$work/warm.txt"
cold_json="$work/cold.json"
warm_json="$work/warm.json"
race_json="$work/race.json"

FF_CACHE_DIR="$cache_dir" "$bench" --jobs "$jobs" \
    --json "$cold_json" "$scale" \
    | grep -v '^\[engine\]' > "$cold_table"
FF_CACHE_DIR="$cache_dir" "$bench" --jobs "$jobs" \
    --json "$warm_json" "$scale" \
    | grep -v '^\[engine\]' > "$warm_table"

if ! diff -u "$cold_table" "$warm_table"; then
    echo "cache_smoke: FAIL — cached rerun changed the result tables" \
        >&2
    exit 1
fi

pids=()
for r in 1 2 3; do
    FF_CACHE_DIR="$race_dir" "$bench" --jobs 1 "$scale" \
        > "$work/race$r.out" &
    pids+=("$!")
done
for pid in "${pids[@]}"; do
    wait "$pid"
done
FF_CACHE_DIR="$race_dir" "$bench" --jobs 1 --json "$race_json" \
    "$scale" > "$work/race-warm.out"
for run in race1 race2 race3 race-warm; do
    if ! diff -u "$cold_table" \
            <(grep -v '^\[engine\]' "$work/$run.out"); then
        echo "cache_smoke: FAIL — $run changed the result tables" >&2
        exit 1
    fi
done

python3 - "$cold_json" "$warm_json" "$race_json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    cold = json.load(f)
with open(sys.argv[2]) as f:
    warm = json.load(f)
with open(sys.argv[3]) as f:
    race = json.load(f)

if cold["cacheHits"] != 0:
    sys.exit(f"cache_smoke: FAIL — first run against an empty cache "
             f"reported {cold['cacheHits']} hits")
if cold["cacheMisses"] != cold["sims"]:
    sys.exit(f"cache_smoke: FAIL — first run missed "
             f"{cold['cacheMisses']}/{cold['sims']} cells; every cell "
             f"should have been a miss")
floor = 0.9 * warm["sims"]
if warm["cacheHits"] < floor:
    sys.exit(f"cache_smoke: FAIL — second run hit only "
             f"{warm['cacheHits']}/{warm['sims']} cells "
             f"(needs >= 90%)")
if race["cacheHits"] != race["sims"]:
    sys.exit(f"cache_smoke: FAIL — after three racing writers, the warm "
             f"run hit only {race['cacheHits']}/{race['sims']} cells")
print(f"cache_smoke: PASS — {warm['cacheHits']}/{warm['sims']} hits "
      f"on the second run, {race['cacheHits']}/{race['sims']} after "
      f"three racing writers, tables bit-identical")
EOF
