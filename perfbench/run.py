#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S
                             --trace 0|1 [--smoke]

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/;
later calls rebuild incrementally. The last line of stdout is the
result JSON printed by the benchmark binary. With --trace 1 the spans
are written to .bench_build/traces/<workload>-seed<N>.json.

Exit codes are the binary's (0 = ran and every proof checked out,
1 = a request or a proof failed, 2 = refused: bad arguments, GZKP_*
set in the environment), or 2 when the build fails or the run
overruns its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def refuse(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            refuse("build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="one set-up, tiny pools: a seconds-long self-test")
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    try:
        sys.exit(subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode)
    except subprocess.TimeoutExpired:
        refuse("benchmark exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    main()
