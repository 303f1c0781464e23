#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload relay|mesh --seed N \
        --seconds S --trace 0|1

The driver is compiled (Release, against the repository's unchanged src/)
into .bench_build/perfbench under the checkout root; later runs only
relink what changed. Build output goes to stderr, so the last line of
stdout is the driver's JSON result. The exit code is the driver's: 0 when
every correctness check passed, non-zero otherwise (or when the build
fails, e.g. outside a full checkout).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
