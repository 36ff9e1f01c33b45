#!/usr/bin/env python3
"""Runs simbench on two checkouts in alternating pairs and records every run.

Usage, from the repository root:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
        [--pairs N] [--seconds S] [--seed N] [--size full|tiny]
        [--out FILE]

Each pair runs `simbench/run.py` untraced once in each checkout, with the
checkout as working directory; odd pairs run the parent first, even pairs
the change. Both output lines of every run, the provenance record and the
result, are appended to FILE (default BENCH_simbench.json, a JSON list),
tagged with the side and the pair number. The script fails, appending
nothing for that pair, when a run fails or when the two sides' simulated
digests differ: a speed comparison of two programs that simulate
different things means nothing.

At the end it prints, for every end-to-end metric, each side's median and
quartiles and the number of pairs the change won (ties count for
neither), and whether a gain may be claimed: the change must win at least
nine tenths of the pairs, and the medians must differ by more than the
parent's own quartile spread.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys


def run_side(checkout, args):
    """Runs simbench once in checkout; returns (provenance, result)."""
    cmd = [sys.executable, os.path.join("simbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0",
           "--size", args.size]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                         text=True)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench_pairs: simbench failed in {checkout} "
                 f"(exit {out.returncode})")
    provenance = json.loads(lines[-2])["simbench_record"]
    result = json.loads(lines[-1])
    if result.get("failed", 0) != 0 or not result.get("correct", False):
        sys.exit(f"bench_pairs: simbench reported failed operations in "
                 f"{checkout}")
    return provenance, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def lower_is_better(change_dir):
    """Metric name -> True when lower is better, from BENCHMARK.json."""
    path = os.path.join(change_dir, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError):
        return {}
    return {m["name"]: m.get("better", "lower") == "lower"
            for m in spec.get("end_to_end", [])}


def append(path, records):
    try:
        with open(path) as f:
            trajectory = json.load(f)
    except (OSError, json.JSONDecodeError):
        trajectory = []
    trajectory.extend(records)
    with open(path, "w") as f:
        json.dump(trajectory, f, indent=2)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(
        description="alternating parent/change simbench pairs")
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", default="BENCH_simbench.json")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be at least 1")

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    values = {"parent": {}, "change": {}}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        runs = {}
        for position, side in enumerate(order, start=1):
            provenance, result = run_side(sides[side], args)
            runs[side] = {
                "pair": pair, "side": side, "position": position,
                "timestamp": datetime.datetime.now(
                    datetime.timezone.utc).isoformat(timespec="seconds"),
                "provenance": provenance, "result": result}
        digests = {s: runs[s]["provenance"]["digest"] for s in runs}
        if digests["parent"] != digests["change"]:
            sys.exit(f"bench_pairs: pair {pair}: digests differ "
                     f"(parent {digests['parent']}, "
                     f"change {digests['change']})")
        append(args.out, [runs[s] for s in order])
        for side, run in runs.items():
            for name, m in run["result"]["metrics"].items():
                values[side].setdefault(name, []).append(m["value"])
        print(f"bench_pairs: pair {pair}/{args.pairs} recorded in "
              f"{args.out}", flush=True)

    lower = lower_is_better(sides["change"])
    print(f"{args.workload}, {args.pairs} pairs of {args.seconds} s "
          f"({args.size}):")
    for name in sorted(values["parent"]):
        p, c = values["parent"][name], values["change"][name]
        low = lower.get(name, True)
        wins = sum(1 for a, b in zip(p, c) if (b < a if low else b > a))
        pm, cm = statistics.median(p), statistics.median(c)
        pq, cq = quartiles(p), quartiles(c)
        better = cm < pm if low else cm > pm
        gain = (better and wins * 10 >= 9 * len(p) and
                abs(pm - cm) > pq[1] - pq[0])
        delta = (cm - pm) / pm * 100 if pm else 0.0
        print(f"  {name}: parent median {pm:.4g} [q1 {pq[0]:.4g}, "
              f"q3 {pq[1]:.4g}], change median {cm:.4g} "
              f"[q1 {cq[0]:.4g}, q3 {cq[1]:.4g}], {delta:+.1f}%, "
              f"change better in {wins}/{len(p)}; "
              f"gain {'holds' if gain else 'not shown'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
