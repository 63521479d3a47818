#!/usr/bin/env python3
"""Builds lindb_perfbench from source and runs one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
library and the workload binary into .bench_build/ (or $CARGO_TARGET_DIR);
later runs rebuild incrementally. The workload runs in its own process; this
script reads its line protocol (perfbench/harness.h), checks that it ended
normally, and prints a report followed, as the last line of standard output,
by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics. A run whose process dies (for example the
thread-pool abort) counts every operation it left unfinished as failed and is
reported with its signal; it is never retried.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "lindb_perfbench"
# A workload process may run for its --seconds and this margin for set-up,
# the final checks and the probes; at the benchmark's 30-s windows a hung
# process is stopped after 170 s, inside the 180 s a run may take.
PROCESS_MARGIN_S = 140

WORKLOADS = ("fig8_edge", "fig8_server", "serve_rw", "oocore_join")

# Each workload's three operation classes, in the order of the class1..3
# metrics, with the name the report gives each one.
CLASSES = {
    "fig8_edge": [("dl2sql_op", "dl2sql_op_ms"), ("db_udf", "db_udf_ms"),
                  ("db_pytorch", "db_pytorch_ms")],
    "fig8_server": [("dl2sql_op", "dl2sql_op_ms"), ("db_udf", "db_udf_ms"),
                    ("db_pytorch", "db_pytorch_ms")],
    "serve_rw": [("infer", "infer_ms"), ("lookup", "lookup_ms"),
                 ("write", "write_ms")],
    "oocore_join": [("join", "join_ms"), ("groupby", "groupby_ms"),
                    ("filter", "filter_ms")],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def scratch_env():
    """Environment for the build and the workload: temporary files go to the
    build tree, inside the checkout."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources under src/: nothing to build")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", BINARY, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              env=scratch_env())
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, BINARY)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Run:
    """Everything one workload process reported."""

    def __init__(self):
        self.setups = []
        self.ops = []        # (phase, pass or session, cls, seconds, ok)
        self.windows = {}    # phase -> seconds, summed over its windows
        self.values = {}
        self.layers = {}     # name -> (value, self_ms)
        self.notes = []
        self.done = False

    def parse(self, text):
        for line in text.splitlines():
            try:
                self.parse_line(line)
            except (IndexError, ValueError):
                pass  # a line cut short by a crashed process

    def parse_line(self, line):
        parts = line.split(" ")
        kind = parts[0]
        if kind == "op" and len(parts) == 6:
            self.ops.append((parts[1], int(parts[2]), parts[3],
                             float(parts[4]), parts[5] == "1"))
        elif kind == "setup":
            self.setups.append(float(parts[1]))
        elif kind == "window":
            self.windows[parts[1]] = (self.windows.get(parts[1], 0.0)
                                      + float(parts[2]))
        elif kind == "value":
            self.values[parts[1]] = float(parts[2])
        elif kind == "layer":
            self.layers[parts[1]] = (float(parts[2]), float(parts[3]))
        elif kind == "note":
            self.notes.append(line[5:])
        elif kind == "done":
            self.done = True


def trimmed_mean(values):
    """Mean without the lowest and the highest tenth of the values. The
    host this was tuned on changes speed every few seconds; a mean over the
    run averages those phases where a median would pick one of them, and the
    trimming keeps a single stalled repetition out."""
    ordered = sorted(values)
    k = int(len(ordered) * 0.1 + 0.5)
    kept = ordered[k:len(ordered) - k] or ordered
    return statistics.mean(kept) if kept else 0.0


def ops_of(run, phase):
    return [o for o in run.ops if o[0] == phase and o[4]]


def class_seconds(run, workload, phase, cls):
    """The typical time of one class and its sample count. fig8: each
    query's trimmed mean over the passes, averaged over the fixed query list
    (Fig. 8's seconds per query over a fixed mix). serve_rw and oocore_join:
    the trimmed mean over the class's operations."""
    ops = [o for o in run.ops if o[0] == phase and o[2] == cls and o[4]]
    if not ops:
        return 0.0, 0
    if workload.startswith("fig8"):
        # The k-th query of a class in a pass is query k of the list; count
        # failed runs too, so a failure does not shift the later queries.
        by_query = {}
        seen = {}
        for o in run.ops:
            if o[0] != phase or o[2] != cls:
                continue
            position = seen.get(o[1], 0)
            seen[o[1]] = position + 1
            if o[4]:
                by_query.setdefault(position, []).append(o[3])
        return (statistics.mean(trimmed_mean(v) for v in by_query.values()),
                len(ops))
    return trimmed_mean([o[3] for o in ops]), len(ops)


def ops_per_second(run, workload, phase):
    """Throughput: serve_rw's statements over its window, or the trimmed
    mean over the complete passes of the other workloads' fixed mix."""
    ops = ops_of(run, phase)
    if not ops:
        return 0.0
    if workload == "serve_rw":
        window = run.windows.get(phase, 0.0)
        return len(ops) / window if window > 0 else 0.0
    passes = {}
    for o in ops:
        passes.setdefault(o[1], []).append(o[3])
    size = max(len(p) for p in passes.values())
    return trimmed_mean([size / sum(p) for p in passes.values()
                         if len(p) == size])


def e2e_metrics(run, workload, phase):
    """The end-to-end metrics of one phase, with their sample counts."""
    metrics = {}
    counts = {}
    for i, (cls, _) in enumerate(CLASSES[workload], start=1):
        secs, n = class_seconds(run, workload, phase, cls)
        metrics["class%d_ms" % i] = (secs * 1e3, "ms")
        counts["class%d_ms" % i] = n
    metrics["ops_per_s"] = (ops_per_second(run, workload, phase), "1/s")
    counts["ops_per_s"] = len(ops_of(run, phase))
    return metrics, counts


def fig8_report(run):
    """Raw wall time beside the engines' calibrated QueryCost buckets."""
    lines = []
    raw = {}
    modeled = {}
    for cls, alias in CLASSES["fig8_edge"]:
        secs, _ = class_seconds(run, "fig8_edge", "e2e", cls)
        raw[cls] = secs * 1e3
        buckets = [run.values.get("modeled.%s.%s_ms" % (cls, b), 0.0)
                   for b in ("loading", "inference", "relational")]
        modeled[cls] = sum(buckets)
        lines.append("%-14s raw %9.2f ms/query | modeled loading %8.2f "
                     "inference %8.2f relational %7.2f total %8.2f ms"
                     % (alias, raw[cls], *buckets, modeled[cls]))
    for name, table in (("raw", raw), ("modeled", modeled)):
        op, pt = table["dl2sql_op"], table["db_pytorch"]
        if op > 0 and pt > 0:
            lines.append("shape (a), %s: DL2SQL-OP / DB-PyTorch = %.3f, "
                         "DB-PyTorch / DL2SQL-OP = %.3f" % (name, op / pt,
                                                             pt / op))
    return lines


def serve_report(run):
    lines = []
    for cls in ("infer", "lookup", "write"):
        lat = [o[3] * 1e3 for o in run.ops if o[0] == "e2e" and o[2] == cls
               and o[4]]
        if lat:
            lines.append("%-6s p50 %.4f ms, p90 %.4f ms (%d samples)"
                         % (cls, median(lat), percentile(lat, 90), len(lat)))
    return lines


def trace_overhead_pct(run, workload):
    """Traced against untraced time per operation, summed over the classes,
    from the alternating windows of one traced run."""
    untraced, _ = e2e_metrics(run, workload, "untraced")
    traced, _ = e2e_metrics(run, workload, "traced")
    u = sum(untraced["class%d_ms" % i][0] for i in (1, 2, 3))
    t = sum(traced["class%d_ms" % i][0] for i in (1, 2, 3))
    return 100.0 * (t - u) / u if u > 0 else 0.0


def run_workload(binary, args):
    scratch = os.path.join(build_dir(), "scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.plant_wrong:
        cmd += ["--plant-wrong", args.plant_wrong]
    err_path = os.path.join(scratch, "%s-seed%d.stderr" % (args.workload,
                                                            args.seed))
    started = time.monotonic()
    with open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=err, text=True, env=scratch_env())
        try:
            out, _ = proc.communicate(timeout=args.seconds
                                      + PROCESS_MARGIN_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
    run = Run()
    run.parse(out)
    run.returncode = proc.returncode
    run.elapsed = time.monotonic() - started
    run.stderr_path = err_path
    return run


def unfinished_ops(run, args):
    """Operations an aborted run would still have started: the rest of its
    window at the rate it had reached, and at least one. The sessions of
    serve_rw run side by side, so each one is counted on its own."""
    lanes = {}
    for o in run.ops:
        if o[0] != "check":
            lane = o[1] if args.workload == "serve_rw" else 0
            lanes.setdefault(lane, []).append(o[3])
    missing = 0
    for seconds in lanes.values():
        covered = sum(seconds)
        if covered > 0:
            rest = max(0.0, args.seconds - covered)
            missing += int(math.ceil(len(seconds) / covered * rest))
    return max(1, missing)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-wrong", default="",
                        help="self-check: corrupt the first result of this "
                             "operation class")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    run = run_workload(binary, args)

    for note in run.notes:
        print("note: " + note)
    attempted = len(run.ops)
    failed = sum(1 for o in run.ops if not o[4])
    if run.returncode != 0 or not run.done:
        how = ("signal %s" % signal.Signals(-run.returncode).name
               if run.returncode < 0 else "exit code %d" % run.returncode)
        missing = unfinished_ops(run, args)
        print("ABORTED: workload process ended with %s after %.1f s; %d "
              "unfinished operations count as failed (stderr: %s)"
              % (how, run.elapsed, missing, run.stderr_path))
        attempted += missing
        failed += missing
    if failed:
        print("failed operations: %d of %d" % (failed, attempted))

    metrics = {}
    if args.trace == 0:
        e2e, counts = e2e_metrics(run, args.workload, "e2e")
        metrics["setup_s"] = (median(run.setups), "s")
        counts["setup_s"] = len(run.setups)
        metrics["peak_rss_mb"] = (run.values.get("peak_rss_mb", 0.0), "MB")
        counts["peak_rss_mb"] = 1
        metrics.update(e2e)
        aliases = dict(("class%d_ms" % i, alias) for i, (_, alias)
                       in enumerate(CLASSES[args.workload], start=1))
        for name, (value, unit) in metrics.items():
            label = " (%s)" % aliases[name] if name in aliases else ""
            print("metric %s%s = %.6g %s, %d samples"
                  % (name, label, value, unit, counts[name]))
        if args.workload.startswith("fig8"):
            for line in fig8_report(run):
                print(line)
        elif args.workload == "serve_rw":
            for line in serve_report(run):
                print(line)
    else:
        sys.dont_write_bytecode = True
        import layers  # perfbench/layers.py
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            per_layer = json.load(f)["per_layer"]
        metrics = layers.collect(run, args,
                                 trace_overhead_pct(run, args.workload),
                                 per_layer)

    result = {
        "correct": failed == 0 and run.done,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
