#!/usr/bin/env python3
"""The benchmark's own smoke test.

    python3 perfbench/smoke.py

Runs every workload the benchmark has (those BENCHMARK.json names, and
`serve_get` and `serve_screen`, which it leaves out because their
figures are not steady on a 2-vCPU host) on a tiny deck, untraced and
traced, and fails unless each result line has exactly the keys
`correct`, `attempted`, `failed` and `metrics`; the run is correct with
zero failed operations; and every metric BENCHMARK.json names for that
mode is present, finite, non-zero (end-to-end) and in its declared unit.
Takes about a minute.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seconds", "1", "--lines", "3000", "--setup-reps", "1"]
ALL_WORKLOADS = ["pack", "get", "serve_get", "serve_screen"]


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "11", "--trace", str(trace)] + TINY
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, "exit %d: %s" % (done.returncode, done.stderr.strip()[-500:])
    return json.loads(lines[-1]), None


def check(result, wanted, nonzero):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("not correct")
    if result.get("failed") != 0:
        problems.append("%s failed operations" % result.get("failed"))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is %r" % result.get("attempted"))
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("%s missing" % m["name"])
            continue
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append("%s unit %r, want %r" % (m["name"], got.get("unit"), m["unit"]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s value %r" % (m["name"], value))
        elif nonzero and value == 0:
            problems.append("%s is zero" % m["name"])
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append("unlisted metrics %s" % sorted(extra))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    workloads += [w for w in ALL_WORKLOADS if w not in workloads]
    failures = 0
    for name in workloads:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, err = run(name, trace)
            problems = [err] if err else check(result, wanted, nonzero=(trace == 0))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("%-13s trace=%d  %s" % (name, trace, status), flush=True)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
