#!/usr/bin/env python3
"""Tiny-size self-test of the simulator benchmark.

Runs every workload of the harness at the tiny input size through
run.py, untraced and traced, and checks that:
  - the last output line is the result object with exactly the keys
    correct, attempted, failed and metrics;
  - every untraced run prints exactly the end-to-end metrics of
    BENCHMARK.json and every traced run exactly its per-layer metrics,
    each under its declared unit, and the provenance record carries the
    workload's own figures README.md lists for it;
  - no operation fails, and the simulated digest repeats from run to
    run, between traced and untraced runs, and across worker counts;
  - the held-out alternate input runs clean;
  - an injected fingerprint mismatch is counted as a failed operation.

Usage, from the repository root: python3 simbench/selftest.py
Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

FIG6_CELLS = {f"fig6.{p}.{k}.ns_per_cycle"
              for p in ("099.go", "129.compress", "130.li", "175.vpr",
                        "181.mcf", "183.equake", "197.parser", "254.gap",
                        "255.vortex", "300.twolf")
              for k in ("base", "2P", "2Pre")}

# The figures of each workload alone, untraced (0) and traced (1), that
# its provenance record carries (README.md, "Metrics").
DETAILS = {
    "fig6-detailed": {0: {"sim_cycles_per_s"}, 1: FIG6_CELLS},
    "tick-l1": {
        0: {"sim_cycles_per_s", "observed_sim_cycles_per_s"},
        1: {"cpu.runahead.ns_per_cycle", "cpu.base.observed_ns_per_cycle",
            "cpu.2P.observed_ns_per_cycle", "cpu.2Pre.observed_ns_per_cycle",
            "cpu.runahead.observed_ns_per_cycle"},
    },
    "fig6-sampled": {
        0: {"ipc_err_max_pct", "ipc_err_mean_pct"},
        1: {"sim.sampled.plan_s", "sim.sampled.replay_s",
            "sim.sampled.stitch_ms", "sim.sampled.intervals",
            "sim.sampled.detail_fraction", "common.thread_pool.efficiency"},
    },
    "fig6-cached": {
        0: {"cold_s", "warm_s", "cache_disk_mb"},
        1: {f"sim.result_cache.{m}" for m in
            ("key_ms", "lookup_ms", "store_ms", "entry_bytes", "hits",
             "misses", "errors")} |
           {f"sim.snapshot.{m}" for m in
            ("warmup_s", "encode_ms", "decode_ms", "resume_s", "bytes")},
    },
}

failures = []


def expect(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL: {what}", flush=True)


def bench(workload, trace, *extra):
    """One tiny run; returns (result, record)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    expect(out.returncode == 0, f"{workload} {extra}: exit {out.returncode}")
    if not lines:
        return {}, {}
    result = json.loads(lines[-1])
    record = next((json.loads(line)["simbench_record"] for line in lines
                   if line.startswith('{"simbench_record"')), {})
    return result, record


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect({w["name"] for w in spec["workloads"]} <= set(DETAILS),
           "BENCHMARK.json names only workloads the harness runs")

    digests = {}
    for workload in DETAILS:
        for trace in (0, 1):
            result, record = bench(workload, trace)
            tag = f"{workload} trace={trace}"
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{tag}: result keys")
            expect(result.get("correct") is True, f"{tag}: correct")
            expect(result.get("failed") == 0, f"{tag}: no failed operation")
            expect(result.get("attempted", 0) >= 1, f"{tag}: attempted")
            metrics = result.get("metrics", {})
            missing = set(declared[trace]) - set(metrics)
            extra = set(metrics) - set(declared[trace])
            expect(not missing and not extra,
                   f"{tag}: metric set (missing {missing}, extra {extra})")
            for name, m in metrics.items():
                expect(declared[trace].get(name) == m["unit"],
                       f"{tag}: {name} declared with unit {m['unit']}")
                expect(isinstance(m["value"], (int, float)),
                       f"{tag}: {name} is a number")
            details = set(record.get("details", {}))
            expect(details == DETAILS[workload][trace],
                   f"{tag}: record details "
                   f"{details ^ DETAILS[workload][trace]}")
            digests.setdefault(workload, set()).add(record.get("digest"))
        _, again = bench(workload, 0)
        digests[workload].add(again.get("digest"))
        expect(len(digests[workload]) == 1,
               f"{workload}: digest repeats across runs and tracing")

    _, one = bench("fig6-sampled", 0, "--jobs", "1")
    _, two = bench("fig6-sampled", 0, "--jobs", "2")
    expect(one.get("digest") == two.get("digest") and
           one.get("digest") in digests["fig6-sampled"],
           "fig6-sampled digest is the same at 1, 2 and the default workers")

    result, alt = bench("fig6-detailed", 0, "--input", "alternate")
    expect(result.get("correct") is True and alt.get("input") == "alternate"
           and alt.get("digest") not in digests["fig6-detailed"],
           "the held-out alternate input runs clean and simulates apart")

    result, _ = bench("fig6-detailed", 0, "--inject-mismatch")
    expect(result.get("failed", 0) > 0 and result.get("correct") is False,
           "an injected fingerprint mismatch counts as failed operations")

    print("selftest:", "FAILED" if failures else "ok",
          f"({len(failures)} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
