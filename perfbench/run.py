#!/usr/bin/env python3
"""Builds the session benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload hs-storm --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ at the checkout root (CMake, Release); a
build that is already there is only brought up to date. Build output goes
to stderr, so the benchmark's last stdout line stays its JSON result.
Traced runs (--trace 1) write their spans to .bench_build/traces/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
                      "-G", "Unix Makefiles"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"perfbench: build step failed: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: {' '.join(step)} exited {done.returncode}", file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    command = [BINARY, *sys.argv[1:], "--trace-dir", os.path.join(BUILD, "traces")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
