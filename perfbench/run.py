#!/usr/bin/env python3
"""Build and run the repository's benchmark on one workload.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1 [--out FILE]

Run from the root of a source checkout.  The script builds
perfbench/bench.exe from source with dune into .bench_build/ (release
profile, dune's shared cache off, so nothing is written outside the
checkout), then runs it with the given arguments.  bench.exe prints a
per-cell report and, as its last line, the JSON result.  The exit code is
bench.exe's, or 1 when the build fails or the run overstays its time
limit.  See perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
# A run measures for --seconds plus one warm-up pass; this caps a hung one.
RUN_LIMIT_S = 175


def main(args):
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    try:
        run = subprocess.run([EXE] + args, cwd=ROOT, env=env,
                             timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_LIMIT_S)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
