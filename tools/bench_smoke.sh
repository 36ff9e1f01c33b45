#!/usr/bin/env bash
# Smoke test for the parallel experiment engine and the statistics
# pipeline:
#  1. run bench_fig6 at a small scale serially and in parallel,
#     require bit-identical tables (only the [engine] footer may
#     differ — it reports jobs and wall time), and append the
#     wall-clock + sim-cycles/sec record to BENCH_fig6.json (a JSON
#     array: one timestamped record per run, so the file accumulates
#     a throughput trajectory across CI runs);
#  2. measure cached sweep throughput: one cold run with a fresh
#     FF_CACHE_DIR and a warm-up fork prefix fills the result cache,
#     then three warm runs replay it; the median warm wall time, the
#     cache hit/miss counts and the warm speedup are folded into the
#     same BENCH_fig6.json record, and every warm table must stay
#     bit-identical to the uncached serial run. The gate is on the
#     cache's own cost: every warm run must hit every key, and the
#     median warm wall must stay under a ceiling (0.35 s at scale 25,
#     over 3x the ~0.11 s a warm pass takes on a shared 4-vCPU host);
#  3. gate hot-path throughput (bench_tick) with a floor, and append
#     its record to the same trajectory file;
#  4. gate sampled simulation (bench_sampled): the sampled estimator
#     must stay within 2% relative IPC error of full detailed
#     simulation on the fig6 suite, simulate in detail at most a
#     third of the full sweep's cycles (a deterministic count), and
#     spend at most a ceiling on its functional checkpoint passes
#     (6 s at scale 1600, over 3x the ~1.7 s measured); the record,
#     speedup included, joins the same trajectory file;
#  5. emit a --profile --metrics-out JSON document for 181.mcf on
#     every timed model and validate each against
#     tools/metrics_schema.json, so the exported document and the
#     schema cannot drift apart.
#
# The statsReport goldens are the stats_goldens ctest
# (tools/stats_golden.sh).
#
# Usage: tools/bench_smoke.sh [build-dir] [scale-percent]
set -euo pipefail

build_dir="${1:-build}"
scale="${2:-25}"
jobs="${FF_JOBS:-$(nproc)}"
bench="$build_dir/bench/bench_fig6"
ffvm="$build_dir/tools/ffvm"

if [ ! -x "$bench" ]; then
    echo "bench_smoke: $bench is not built" >&2
    exit 1
fi

# Appends the JSON record in $1, stamped with the UTC time, to
# BENCH_fig6.json, so the file grows into a perf trajectory: one
# array entry per record; a legacy single-object file is wrapped on
# first append.
append_record() {
    python3 - "$1" BENCH_fig6.json <<'EOF'
import datetime
import json
import sys

record_path, trajectory_path = sys.argv[1], sys.argv[2]
with open(record_path) as f:
    record = json.load(f)
record["timestamp"] = datetime.datetime.now(
    datetime.timezone.utc).isoformat(timespec="seconds")
try:
    with open(trajectory_path) as f:
        trajectory = json.load(f)
    if not isinstance(trajectory, list):
        trajectory = [trajectory]
except (OSError, json.JSONDecodeError):
    trajectory = []
trajectory.append(record)
with open(trajectory_path, "w") as f:
    json.dump(trajectory, f, indent=2)
    f.write("\n")
print(f"bench_smoke: appended record {len(trajectory)} to "
      f"{trajectory_path}")
EOF
}

serial="$(mktemp)"
par="$(mktemp)"
record="$(mktemp)"
trap 'rm -f "$serial" "$par" "$record"' EXIT

"$bench" --jobs 1 "$scale" | grep -v '^\[engine\]' > "$serial"
"$bench" --jobs "$jobs" --json "$record" "$scale" \
    | grep -v '^\[engine\]' > "$par"

if ! diff -u "$serial" "$par"; then
    echo "bench_smoke: FAIL — tables differ between --jobs 1 and" \
         "--jobs $jobs" >&2
    exit 1
fi

echo "bench_smoke: tables bit-identical at --jobs 1 and --jobs $jobs"

# ---- cached throughput: cold fills the cache, warm replays it ------
warmup_cycles=20000
cache_dir="$(mktemp -d)"
cold_json="$(mktemp)"
warm_json="$(mktemp)"
warm_table="$(mktemp)"
warm_walls=()
trap 'rm -rf "$serial" "$par" "$record" "$cache_dir" "$cold_json" \
         "$warm_json" "$warm_table"' EXIT

FF_CACHE_DIR="$cache_dir" "$bench" --jobs "$jobs" \
    --json "$cold_json" --warmup "$warmup_cycles" "$scale" \
    | grep -v '^\[engine\]' > "$warm_table"
if ! diff -u "$serial" "$warm_table"; then
    echo "bench_smoke: FAIL — cold cached run (warm-up fork) differs" \
         "from the uncached serial tables" >&2
    exit 1
fi
# A fully warm pass answers every cell in the executor's serial cache
# pass, so one job costs it nothing, while a lookup that simulated
# anyway would pay for the whole sweep on one thread, far above the
# ceiling below.
for i in 1 2 3; do
    FF_CACHE_DIR="$cache_dir" "$bench" --jobs 1 \
        --json "$warm_json" --warmup "$warmup_cycles" "$scale" \
        | grep -v '^\[engine\]' > "$warm_table"
    if ! diff -u "$serial" "$warm_table"; then
        echo "bench_smoke: FAIL — warm cached run $i differs from" \
             "the uncached serial tables" >&2
        exit 1
    fi
    warm_walls+=("$(python3 -c \
        "import json,sys; print(json.load(open(sys.argv[1]))['wallSeconds'])" \
        "$warm_json")")
done

# Gate the cached cold/warm measurement and fold it into the
# throughput record, which then joins the trajectory.
python3 - "$record" "$cold_json" "$warm_json" "$scale" \
    "${warm_walls[@]}" <<'EOF'
import json
import statistics
import sys

record_path, cold_path, warm_path = sys.argv[1], sys.argv[2], sys.argv[3]
scale = int(sys.argv[4])
warm_walls = [float(w) for w in sys.argv[5:]]
# The warm pass builds the suite and hashes each image, both of which
# grow with the scale; no simulation speed enters it.
warm_ceiling = 0.35 * max(1.0, scale / 25)
with open(record_path) as f:
    record = json.load(f)

with open(cold_path) as f:
    cold = json.load(f)
with open(warm_path) as f:
    warm = json.load(f)  # last warm run: carries the hit/miss counts
median_warm = statistics.median(warm_walls)
record["warmupCycles"] = cold["warmupCycles"]
record["coldCachedWallSeconds"] = cold["wallSeconds"]
record["warmWallSecondsMedian"] = round(median_warm, 3)
record["cacheHits"] = warm["cacheHits"]
record["cacheMisses"] = warm["cacheMisses"]
speedup = cold["wallSeconds"] / max(median_warm, 1e-9)
record["warmSpeedup"] = round(speedup, 2)
print(f"bench_smoke: cached sweep cold {cold['wallSeconds']:.2f} s, "
      f"warm median {median_warm:.2f} s over {len(warm_walls)} runs "
      f"({record['warmSpeedup']}x, {warm['cacheHits']} hits / "
      f"{warm['cacheMisses']} misses)")
if warm["cacheMisses"] != 0 or warm["cacheHits"] != warm["sims"]:
    sys.exit("bench_smoke: FAIL — warm run was not fully cached")
if median_warm > warm_ceiling:
    sys.exit(f"bench_smoke: FAIL — warm median {median_warm:.3f} s "
             f"above the {warm_ceiling:.2f} s ceiling")
print(f"bench_smoke: fig6 {record['simCyclesPerSec']:.3g} "
      f"sim-cycles/s")
with open(record_path, "w") as f:
    json.dump(record, f)
EOF
append_record "$record"

# ---- hot-path throughput gate (bench_tick) -------------------------
# bench_tick measures raw sim-cycles/sec per model on an L1-resident
# kernel — the per-cycle hot path with the memory system quiet. Gate
# it with a conservative floor so a hot-path regression (an accidental
# O(n) scan, a devirtualization loss) fails CI even when the figure
# tables still agree, and append the record to the same trajectory
# file. Override the floor with FF_TICK_FLOOR (sim-cycles/s).
tick_bench="$build_dir/bench/bench_tick"
tick_floor="${FF_TICK_FLOOR:-4000000}"
if [ ! -x "$tick_bench" ]; then
    echo "bench_smoke: $tick_bench is not built" >&2
    exit 1
fi
tick_json="$(mktemp)"
trap 'rm -rf "$serial" "$par" "$record" "$cache_dir" "$cold_json" \
         "$warm_json" "$warm_table" "$tick_json"' EXIT
"$tick_bench" --json "$tick_json" "$scale" > /dev/null
python3 - "$tick_json" "$tick_floor" <<'EOF'
import json
import sys

tick_path, floor = sys.argv[1], float(sys.argv[2])
with open(tick_path) as f:
    record = json.load(f)

rate = record["simCyclesPerSec"]
print(f"bench_smoke: bench_tick {rate:.3g} sim-cycles/s "
      f"(floor {floor:.3g})")
# The tracer-attached pass is informational: it prices the pipeview
# observer but is not floor-gated (only the detached hot path is).
for row in record.get("perModel", []):
    traced = row.get("simCyclesPerSecTraced")
    if traced:
        print(f"bench_smoke:   {row['model']}: "
              f"{row['simCyclesPerSec']:.3g} detached, "
              f"{traced:.3g} traced sim-cycles/s")
if rate < floor:
    sys.exit(f"bench_smoke: FAIL — bench_tick throughput {rate:.3g} "
             f"sim-cycles/s below the {floor:.3g} floor")
EOF
append_record "$tick_json"

# ---- sampled simulation gate (bench_sampled) -----------------------
# bench_sampled runs the full fig6 suite twice — full detailed and
# sampled — and reports the relative IPC error, the wall-clock
# speedup of the estimator, the cycles it simulates in detail and the
# time of its functional checkpoint passes. Gate the error (<= 2% at
# the default 32000:4000 config) and the sampler's own cost, not the
# speedup, a ratio that falls whenever detailed simulation gets
# faster: at most a third of the full sweep's cycles in detail, and
# the checkpoint passes under a ceiling that grows with the scale.
# Append the record to the trajectory file. Scale 1600 is where the
# headline trade holds: long enough that the detailed fraction is
# small, short enough for CI. Override with FF_SAMPLED_SCALE; the
# cache must stay off for this section — cache hits would time the
# cache, not the simulator.
sampled_bench="$build_dir/bench/bench_sampled"
sampled_scale="${FF_SAMPLED_SCALE:-1600}"
if [ ! -x "$sampled_bench" ]; then
    echo "bench_smoke: $sampled_bench is not built" >&2
    exit 1
fi
sampled_json="$(mktemp)"
trap 'rm -rf "$serial" "$par" "$record" "$cache_dir" "$cold_json" \
         "$warm_json" "$warm_table" "$tick_json" "$sampled_json"' EXIT
env -u FF_CACHE_DIR "$sampled_bench" --json "$sampled_json" \
    --max-err 2.0 "$sampled_scale" > /dev/null
python3 - "$sampled_json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    record = json.load(f)
print(f"bench_smoke: sampled fig6 max err "
      f"{record['maxRelErrPct']:.2f}% (mean "
      f"{record['meanRelErrPct']:.2f}%), speedup "
      f"{record['sampledSpeedup']}x over full detailed "
      f"({record['fullWallSeconds']:.2f} s -> "
      f"{record['sampledWallSeconds']:.2f} s)")
detailed, full = record["detailedCycles"], record["fullCycles"]
plan_ceiling = 6.0 * max(1.0, record["scale"] / 1600)
print(f"bench_smoke: sampler simulated {detailed} of {full} cycles in "
      f"detail ({100.0 * detailed / full:.1f}%, at most 33.3%); "
      f"checkpoint passes {record['planSeconds']:.2f} s "
      f"(ceiling {plan_ceiling:.1f} s)")
if 3 * detailed > full:
    sys.exit("bench_smoke: FAIL — the sampler simulated more than a "
             "third of the full sweep's cycles in detail")
if record["planSeconds"] > plan_ceiling:
    sys.exit(f"bench_smoke: FAIL — checkpoint passes took "
             f"{record['planSeconds']:.2f} s, above the "
             f"{plan_ceiling:.1f} s ceiling")
EOF
append_record "$sampled_json"

# ---- metrics JSON schema validation (one run per timed model) ------
if [ ! -x "$ffvm" ]; then
    echo "bench_smoke: $ffvm is not built" >&2
    exit 1
fi
tools_dir="$(dirname "$0")"
metrics_docs=()
for model in base 2P 2Pre runahead; do
    doc="$(mktemp --suffix=.json)"
    metrics_docs+=("$doc")
    "$ffvm" --workload=181.mcf --scale 5 \
        --model "$model" --profile --metrics-out="$doc" > /dev/null
done
if ! python3 "$tools_dir/validate_metrics.py" "${metrics_docs[@]}"; then
    echo "bench_smoke: FAIL — emitted metrics JSON violates" \
         "$tools_dir/metrics_schema.json" >&2
    rm -f "${metrics_docs[@]}"
    exit 1
fi
rm -f "${metrics_docs[@]}"

echo "bench_smoke: metrics documents validate against the schema"
