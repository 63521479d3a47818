#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>

#include "common/timer.h"

namespace dl2sql::perfbench {

void Emit(const std::string& lines, bool flush) {
  const std::string out = lines + '\n';
  std::fwrite(out.data(), 1, out.size(), stdout);
  if (flush) std::fflush(stdout);
}

namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

void EmitSetup(double seconds) { Emit("setup " + Num(seconds)); }

void EmitValue(const std::string& name, double value) {
  Emit("value " + name + " " + Num(value));
}

void EmitNote(const std::string& text) { Emit("note " + text); }

uint64_t NextTraceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

double RunWindow(const std::string& phase, double seconds,
                 const std::vector<Op>& pass_ops) {
  static int64_t next_pass = 0;
  Stopwatch window;
  int64_t ops = 0;
  std::string line;
  while (window.ElapsedSeconds() < seconds) {
    const int64_t pass = next_pass++;
    for (const Op& op : pass_ops) {
      if (window.ElapsedSeconds() >= seconds) break;
      ScopedTraceContext ctx({NextTraceId(), 0});
      Stopwatch watch;
      double secs = -1;
      bool ok;
      {
        LayerSpan span("op." + op.cls);
        ok = op.run(&secs);
      }
      if (secs < 0) secs = watch.ElapsedSeconds();
      line = "op " + phase + " " + std::to_string(pass) + " " + op.cls + " " +
             Num(secs) + (ok ? " 1" : " 0");
      Emit(line, /*flush=*/false);
      ++ops;
    }
    std::fflush(stdout);
  }
  Emit("window " + phase + " " + Num(window.ElapsedSeconds()));
  return static_cast<double>(ops) / static_cast<double>(pass_ops.size());
}

double RunAlternating(double seconds, const WindowFn& window) {
  double passes = 0;
  for (int w = 0; w < kTraceWindows; ++w) {
    const bool traced = w % 2 == 1;
    TraceCollector::Global().SetEnabled(traced);
    passes += window(traced ? "traced" : "untraced", seconds / kTraceWindows);
  }
  TraceCollector::Global().SetEnabled(true);
  return passes;
}

bool ShouldPlantWrong(const Args& args, const std::string& cls) {
  static std::atomic<bool> planted{false};
  return args.plant_wrong_class == cls && !planted.exchange(true);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::map<std::string, SpanStats> SummarizeBenchSpans() {
  std::vector<TraceEvent> events = TraceCollector::Global().Snapshot();
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.start_us != b.start_us) {
                       return a.start_us < b.start_us;
                     }
                     return a.depth < b.depth;
                   });
  // Per thread, a stack of open spans: a span's direct children are the
  // spans one level deeper that start inside it.
  std::vector<int64_t> covered(events.size(), 0);
  std::vector<size_t> open;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    while (!open.empty()) {
      const TraceEvent& top = events[open.back()];
      const bool same_thread = top.tid == e.tid;
      const bool contains = e.start_us < top.start_us + top.duration_us;
      if (same_thread && contains && top.depth < e.depth) break;
      open.pop_back();
    }
    if (!open.empty() && events[open.back()].depth == e.depth - 1) {
      const TraceEvent& parent = events[open.back()];
      const int64_t end = std::min(e.start_us + e.duration_us,
                                   parent.start_us + parent.duration_us);
      covered[open.back()] += std::max<int64_t>(0, end - e.start_us);
    }
    open.push_back(i);
  }
  std::map<std::string, SpanStats> out;
  std::map<std::string, std::pair<double, double>> sums;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (std::strcmp(e.category, "bench") != 0) continue;
    SpanStats& s = out[e.name];
    ++s.count;
    auto& [total, self] = sums[e.name];
    total += static_cast<double>(e.duration_us);
    self += static_cast<double>(
        std::max<int64_t>(0, e.duration_us - covered[i]));
  }
  for (auto& [name, s] : out) {
    s.mean_us = sums[name].first / static_cast<double>(s.count);
    s.mean_self_us = sums[name].second / static_cast<double>(s.count);
  }
  return out;
}

void EmitLayer(const std::string& name, double value, double self_ms) {
  Emit("layer " + name + " " + Num(value) + " " + Num(self_ms));
}

namespace {

int64_t CounterDelta(const MetricsSnapshot& before,
                     const MetricsSnapshot& after, const std::string& name) {
  auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  auto b = before.counters.find(name);
  return a->second - (b == before.counters.end() ? 0 : b->second);
}

double GaugeDelta(const MetricsSnapshot& before, const MetricsSnapshot& after,
                  const std::string& name) {
  auto a = after.gauges.find(name);
  if (a == after.gauges.end()) return 0;
  auto b = before.gauges.find(name);
  return a->second - (b == before.gauges.end() ? 0 : b->second);
}

MetricsSnapshot::HistogramData HistogramDelta(const MetricsSnapshot& before,
                                              const MetricsSnapshot& after,
                                              const std::string& name) {
  const MetricsSnapshot delta = MetricsRegistry::SnapshotDelta(before, after);
  auto it = delta.histograms.find(name);
  return it == delta.histograms.end() ? MetricsSnapshot::HistogramData{}
                                      : it->second;
}

double CacheHitRatio(const MetricsSnapshot& before,
                     const MetricsSnapshot& after, const std::string& name) {
  const double hits = static_cast<double>(
      CounterDelta(before, after, "cache." + name + ".hits"));
  const double misses = static_cast<double>(
      CounterDelta(before, after, "cache." + name + ".misses"));
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

double HistogramMean(const MetricsSnapshot::HistogramData& h) {
  return h.count > 0 ? static_cast<double>(h.sum_micros) /
                           static_cast<double>(h.count)
                     : 0.0;
}

}  // namespace

void EmitSpanLayers(const std::map<std::string, SpanStats>& spans) {
  const std::pair<const char*, const char*> kSpanMetrics[] = {
      {"workload.populate", "workload.populate_ms"},
      {"workload.testbed", "workload.testbed_ms"},
      {"dl2sql.convert", "dl2sql.convert_ms"},
      {"dl2sql.infer", "dl2sql.infer_ms"},
      {"db.parse", "db.parse_us"},
      {"db.stmt_floor", "db.stmt_floor_us"},
      {"db.relational", "db.relational_ms"},
      {"nn.predict", "nn.predict_ms"},
  };
  // Mean span duration in the unit the metric's name ends with, with its
  // self time.
  for (const auto& [span, metric] : kSpanMetrics) {
    auto it = spans.find(span);
    if (it == spans.end()) continue;
    const std::string m = metric;
    const double scale = m.substr(m.size() - 3) == "_us" ? 1.0 : 1e-3;
    EmitLayer(m, it->second.mean_us * scale, it->second.mean_self_us * 1e-3);
  }
  auto session = spans.find("server.session_execute");
  auto direct = spans.find("server.db_execute");
  if (session != spans.end() && direct != spans.end()) {
    EmitLayer("server.session_overhead_us",
              session->second.mean_us - direct->second.mean_us);
  }
}

void EmitSharedLayers(const MetricsSnapshot& before,
                      const MetricsSnapshot& after, double passes,
                      int64_t infer_ops) {
  const double per_pass = passes > 0 ? 1.0 / passes : 0.0;
  auto counter = [&](const char* name) {
    return static_cast<double>(CounterDelta(before, after, name));
  };
  auto hist = [&](const char* name) {
    return HistogramDelta(before, after, name);
  };
  EmitLayer("db.plan_cache_hit_ratio", CacheHitRatio(before, after, "plan"));
  EmitLayer("db.nudf_cache_hit_ratio", CacheHitRatio(before, after, "nudf"));
  EmitLayer("db.mem_peak_mb",
            HistogramMean(hist("dl2sql.query.mem_peak_bytes")) / 1048576.0);

  const double hits = GaugeDelta(before, after, "storage.pool.hits");
  const double misses = GaugeDelta(before, after, "storage.pool.misses");
  EmitLayer("db.storage.pool_hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0);
  EmitLayer("db.storage.evictions",
            GaugeDelta(before, after, "storage.pool.evictions") * per_pass);
  EmitLayer("db.storage.writebacks",
            GaugeDelta(before, after, "storage.pool.writebacks") * per_pass);
  EmitLayer("db.storage.spill_mb",
            counter("db.spill.bytes") * per_pass / 1048576.0);
  EmitLayer("db.storage.spill_partitions",
            counter("db.spill.partitions") * per_pass);
  EmitLayer("db.storage.grace_joins", counter("db.grace_joins") * per_pass);
  EmitLayer("db.storage.external_aggs", counter("db.external_aggs") * per_pass);

  EmitLayer("nn.batch_ms", HistogramMean(hist("nudf.batch_us")) / 1e3);
  EmitLayer("accel.pool_queue_wait_us",
            HistogramMean(hist("dl2sql.query.pool_queue_wait_us")));
  EmitLayer("accel.morsels", counter("pool.morsels") * per_pass);

  const auto queue = hist("server.queue_us");
  const auto lock = hist("dl2sql.query.lock_wait_us");
  EmitLayer("server.queue_us_p50",
            queue.count > 0 ? static_cast<double>(queue.Quantile(0.5)) : 0);
  EmitLayer("server.queue_us_p90",
            queue.count > 0 ? static_cast<double>(queue.Quantile(0.9)) : 0);
  EmitLayer("server.lock_wait_us_p50",
            lock.count > 0 ? static_cast<double>(lock.Quantile(0.5)) : 0);
  EmitLayer("server.lock_wait_us_p90",
            lock.count > 0 ? static_cast<double>(lock.Quantile(0.9)) : 0);
  EmitLayer("server.coalesce_wait_us",
            HistogramMean(hist("dl2sql.query.coalesce_wait_us")));
  const double submissions = counter("server.coalesce.submissions");
  EmitLayer("server.coalesce_merge_ratio",
            submissions > 0
                ? counter("server.coalesce.merged_batches") / submissions
                : 0);
  EmitLayer("server.nudf_batches_per_infer",
            infer_ops > 0
                ? counter("nudf.batches") / static_cast<double>(infer_ops)
                : 0);
}

void WriteChromeTrace(const Args& args) {
  // The full trace of a fig8 run holds millions of morsel and NN-layer
  // spans; keep the benchmark's spans, the two outermost program levels, and
  // every span of at least a millisecond.
  std::vector<TraceEvent> kept;
  const std::vector<TraceEvent> all = TraceCollector::Global().Snapshot();
  for (const TraceEvent& e : all) {
    if (std::string(e.category) == "bench" || e.depth <= 1 ||
        e.duration_us >= 1000) {
      kept.push_back(e);
    }
  }
  const std::string path = args.scratch_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    EmitNote("chrome trace not written: cannot open " + path);
    return;
  }
  const std::string json = TraceCollector::ChromeTraceJson(kept);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  EmitNote("chrome trace: " + path + " (" + std::to_string(kept.size()) +
           " of " + std::to_string(all.size()) + " spans)");
}

}  // namespace dl2sql::perfbench
