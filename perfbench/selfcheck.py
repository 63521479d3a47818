#!/usr/bin/env python3
"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py [--workload <name>] [--seconds 3]

For each workload of BENCHMARK.json (or the one named) it makes short runs
through run.py and fails unless:
  - an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, and a traced run every per-layer metric, both as the last line
    of standard output with exactly the keys correct/attempted/failed/metrics;
  - both runs are correct with no failed operation;
  - a run with a planted wrong result (run.py --plant-wrong) reports that
    one operation as failed and the run as not correct, for each class the
    workload plants in.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The classes whose first result a planted fault corrupts, one run each.
PLANT = {"fig8_edge": ("dl2sql_op",), "fig8_server": ("dl2sql_op",),
         "serve_rw": ("infer", "lookup", "check"), "oocore_join": ("join",)}


def run(workload, seconds, trace, plant=""):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", str(seconds), "--trace",
           str(trace)]
    if plant:
        cmd += ["--plant-wrong", plant]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return None, "run.py exited with %d" % done.returncode
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), ""
    except (IndexError, ValueError):
        return None, "last line is not JSON"


def check_shape(result, expected):
    """Problems with the result line against BENCHMARK.json's metrics."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys %s" % sorted(result))
    got = result.get("metrics", {})
    for m in expected:
        entry = got.get(m["name"])
        if entry is None:
            problems.append("missing metric %s" % m["name"])
        elif entry.get("unit") != m["unit"]:
            problems.append("metric %s has unit %s, not %s"
                            % (m["name"], entry.get("unit"), m["unit"]))
        elif not (isinstance(entry.get("value"), (int, float))
                  and math.isfinite(entry["value"])):
            problems.append("metric %s is not a finite number" % m["name"])
    for name in set(got) - {m["name"] for m in expected}:
        problems.append("unexpected metric %s" % name)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seconds", type=float, default=3)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in bench["workloads"]])
    failures = 0
    for workload in workloads:
        problems = []
        for trace, expected in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            result, err = run(workload, args.seconds, trace)
            if result is None:
                problems.append("trace %d: %s" % (trace, err))
                continue
            problems += ["trace %d: %s" % (trace, p)
                         for p in check_shape(result, expected)]
            if not result["correct"] or result["failed"]:
                problems.append("trace %d: clean run reports %d failed"
                                % (trace, result["failed"]))
        for plant in PLANT[workload]:
            result, err = run(workload, args.seconds, 0, plant)
            if result is None:
                problems.append("planted fault: " + err)
            elif result["correct"] or result["failed"] != 1:
                problems.append("planted wrong %s result was not counted "
                                "as one failed operation" % plant)
        status = "FAIL" if problems else "ok"
        print("%-12s %s" % (workload, status))
        for p in problems:
            print("    " + p)
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
