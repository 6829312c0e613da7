#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes through dune into _build/ of the checkout (dune's shared
cache is switched off, so nothing is written outside it).  The last line
of standard output is the benchmark's JSON result; build output goes to
standard error.  The exit code is non-zero when the build fails, an
output check fails, or the run overruns its time limit.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RUN_LIMIT_S = 170


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
            env=env,
            stdout=sys.stderr,
        )
    except FileNotFoundError:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([EXE] + sys.argv[1:], env=env, timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
