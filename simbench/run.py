#!/usr/bin/env python3
"""Builds the simulator benchmark from this checkout and runs one workload.

Usage, from the repository root:

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--input default|alternate] [--size full|tiny] [--jobs N]
        [--inject-mismatch]

The harness is configured and built under .bench_build/simbench on first
use, from simbench/ and the simulator sources in src/, then run once. Its
standard output passes through unchanged: a provenance record line, then
the JSON result as the last line. Build logs go to standard error. The
exit code is the harness's, or 2 when the build fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "simbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "simbench-work")
BINARY = os.path.join(BUILD_DIR, "simbench")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"simbench: {msg}", file=sys.stderr, flush=True)


def run_child(cmd, timeout, stdout):
    """Runs cmd to completion; a child still alive on timeout is killed."""
    proc = subprocess.Popen(cmd, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {cmd[0]}")
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, *generator,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if run_child(configure, BUILD_TIMEOUT_S, sys.stderr) != 0:
            return False
    compile_ = ["cmake", "--build", BUILD_DIR, "--target", "simbench",
                "-j", jobs]
    return run_child(compile_, BUILD_TIMEOUT_S, sys.stderr) == 0


def source_digest():
    """SHA-256 over the simulator and benchmark sources, by path."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, ROOT)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
                h.update(b"\0")
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    if not build():
        log("build failed")
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, *sys.argv[1:], "--workdir", WORK_DIR,
           "--commit", commit(), "--source-digest", source_digest()]
    return run_child(cmd, RUN_TIMEOUT_S, None)


if __name__ == "__main__":
    sys.exit(main())
