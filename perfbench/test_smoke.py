#!/usr/bin/env python3
"""Self-test of the benchmark: every named metric is emitted with its unit.

    python3 perfbench/test_smoke.py [WORKLOAD ...]

Runs run.py in --smoke mode (one set-up, tiny witness pools, a
one-second window, a short traced replay) for each workload named in
BENCHMARK.json, once untraced and once traced, and checks that the last
stdout line is the result object with exactly the keys the contract
names, that every end_to_end (untraced) or per_layer (traced) metric
is present with the unit BENCHMARK.json gives it, and that every proof
checked out. Exits nonzero on the first mismatch.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload, trace, spec):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return "exit code %d" % r.returncode
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys %s" % sorted(result)
    if result["correct"] is not True or result["failed"] != 0:
        return "correct=%s failed=%s" % (result["correct"], result["failed"])
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted=%r" % result["attempted"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in wanted):
        return "metric names differ: %s" % sorted(
            set(got) ^ {m["name"] for m in wanted})
    for m in wanted:
        entry = got[m["name"]]
        if sorted(entry) != ["unit", "value"]:
            return "%s: keys %s" % (m["name"], sorted(entry))
        if entry["unit"] != m["unit"]:
            return "%s: unit %r, want %r" % (m["name"], entry["unit"],
                                              m["unit"])
        if not isinstance(entry["value"], (int, float)):
            return "%s: value %r" % (m["name"], entry["value"])
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    failures = 0
    for name in names:
        for trace in (0, 1):
            err = check(name, trace, spec)
            print("%-14s trace=%d %s" % (name, trace, err or "ok"))
            failures += err is not None
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
