"""Per-layer metrics of a traced run (run.py --trace 1).

BENCHMARK.json names every per-layer metric and its unit. MAPS gives each
one the end-to-end metric it should move and the workloads that exercise
its layer. A traced run prints all of them; a metric the workload process
did not emit reads 0. collect() also writes
<build dir>/scratch/<workload>-seed<n>.layers.json with each metric's self
time (span time minus the child spans it covers), its mapped end-to-end
metric and its workload; the Chrome trace lies beside it.
"""

import json
import os

FIG8 = ("fig8_edge", "fig8_server")
ALL = FIG8 + ("serve_rw", "oocore_join")
APPROACHES = (("dl2sql_op", "class1_ms"), ("db_udf", "class2_ms"),
              ("db_pytorch", "class3_ms"))
STORAGE = ("oocore_join",)
SERVER = ("serve_rw",)

# name -> (end-to-end metric it should move, workloads exercising it)
MAPS = {
    "workload.populate_ms": ("setup_s", FIG8),
    "workload.testbed_ms": ("setup_s", FIG8),
    "dl2sql.convert_ms": ("class1_ms", FIG8),
    "dl2sql.infer_ms": ("class1_ms", FIG8),
    "dl2sql.nudf_calls": ("class1_ms", FIG8),
    "db.parse_us": ("class2_ms, ops_per_s; class1_ms", ALL),
    "db.stmt_floor_us": ("class2_ms, ops_per_s; class1_ms", ALL),
    "db.plan_cache_hit_ratio": ("class2_ms, ops_per_s", ALL),
    "db.nudf_cache_hit_ratio": ("class1_ms", SERVER),
    "db.relational_ms": ("class2_ms, class3_ms", FIG8),
    "db.mem_peak_mb": ("peak_rss_mb", ALL),
    "db.storage.pool_hit_ratio": ("class1_ms, class2_ms", STORAGE),
    "db.storage.evictions": ("class1_ms, class2_ms", STORAGE),
    "db.storage.writebacks": ("class1_ms, class2_ms", STORAGE),
    "db.storage.spill_mb": ("class1_ms, class2_ms, peak_rss_mb", STORAGE),
    "db.storage.spill_partitions": ("class1_ms, class2_ms", STORAGE),
    "db.storage.grace_joins": ("none (constant: 1 per pass)", STORAGE),
    "db.storage.external_aggs": ("none (constant: 1 per pass)", STORAGE),
    "nn.predict_ms": ("class3_ms, class2_ms; class1_ms", FIG8 + SERVER),
    "nn.batch_ms": ("class1_ms", SERVER),
    "accel.pool_busy_share": ("class1_ms, class2_ms, class3_ms", FIG8),
    "accel.pool_queue_wait_us": ("class1_ms, class2_ms, class3_ms",
                                 ("fig8_server",)),
    "accel.morsels": ("class1_ms, class2_ms, class3_ms", FIG8),
    "server.coalesce_merge_ratio": ("class1_ms, ops_per_s", SERVER),
    "server.nudf_batches_per_infer": ("class1_ms", SERVER),
    "server.session_overhead_us": ("class2_ms, ops_per_s", SERVER),
    "common.trace_overhead_pct": ("none (traced minus untraced)", ALL),
}
for _a, _metric in APPROACHES:
    for _bucket in ("loading", "inference", "relational"):
        MAPS["engines.%s.modeled_%s_ms" % (_a, _bucket)] = (
            "none (a model, printed beside raw %s)" % _metric, FIG8)
for _part in ("clause.join", "clause.groupby", "clause.project", "op.conv",
              "op.bn", "op.relu", "op.pool", "op.fc"):
    MAPS["dl2sql.%s_ms" % _part] = ("class1_ms", FIG8)
for _name in ("queue_us_p50", "queue_us_p90", "lock_wait_us_p50",
              "lock_wait_us_p90", "coalesce_wait_us"):
    MAPS["server." + _name] = ("write p90, class1_ms, class3_ms, ops_per_s",
                               SERVER)


def collect(run, args, overhead_pct, per_layer):
    """Every per-layer metric of BENCHMARK.json (`per_layer`) for a traced
    run, as {name: (value, unit)}."""
    emitted = dict(run.layers)
    emitted["common.trace_overhead_pct"] = (overhead_pct, -1.0)
    names = [m["name"] for m in per_layer]
    unlisted = sorted(set(emitted) - set(names))
    unmapped = sorted(set(names) - set(MAPS))
    if unlisted or unmapped:
        raise SystemExit("per-layer metrics not in BENCHMARK.json: %s; "
                         "without a map in layers.py: %s"
                         % (unlisted, unmapped))
    metrics = {}
    report = []
    for m in per_layer:
        name, unit = m["name"], m["unit"]
        maps_to, workloads = MAPS[name]
        exercised = args.workload in workloads
        value, self_ms = emitted.get(name, (0.0, -1.0))
        metrics[name] = (value, unit)
        entry = {"name": name, "value": value, "unit": unit,
                 "maps_to": maps_to, "workload": args.workload,
                 "exercised": exercised}
        if self_ms >= 0:
            entry["self_ms"] = self_ms
        report.append(entry)
        print("layer %-42s %12.6g %-6s -> %s%s"
              % (name, value, unit, maps_to,
                 "" if exercised else " [not exercised here]"))
    path = os.path.join(os.path.dirname(run.stderr_path),
                        "%s-seed%d.layers.json" % (args.workload, args.seed))
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print("note: per-layer report: " + path)
    return metrics
