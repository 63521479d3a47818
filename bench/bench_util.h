/// \file bench_util.h
/// \brief Shared helpers for the experiment-reproduction binaries.
///
/// Each bench regenerates one table or figure of the paper's evaluation
/// section and prints it in a comparable layout. Absolute numbers differ from
/// the ARM edge testbed; EXPERIMENTS.md records the shape comparisons.
///
/// Scale control: set DL2SQL_BENCH_SCALE=full for paper-sized sweeps
/// (slower); the default "small" keeps every binary in the seconds range.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "workload/testbed.h"

namespace dl2sql::bench {

inline bool FullScale() {
  const char* v = std::getenv("DL2SQL_BENCH_SCALE");
  return v != nullptr && std::strcmp(v, "full") == 0;
}

/// Standard testbed options used across benches (paper Section V analog).
inline workload::TestbedOptions StandardOptions() {
  workload::TestbedOptions options;
  options.dataset.video_rows = FullScale() ? 20000 : 1500;
  options.dataset.keyframe_size = FullScale() ? 24 : 16;
  options.dataset.keyframe_channels = 3;
  options.model_base_channels = 4;
  options.histogram_samples = FullScale() ? 128 : 32;
  return options;
}

/// Prints a header line followed by a separator.
inline void PrintHeader(const std::string& title,
                        const std::vector<std::string>& columns) {
  std::printf("\n== %s ==\n", title.c_str());
  for (const auto& c : columns) std::printf("%-16s", c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) std::printf("----------------");
  std::printf("\n");
}

inline void PrintCell(const std::string& s) { std::printf("%-16s", s.c_str()); }
inline void PrintCell(double v) { std::printf("%-16.4f", v); }
inline void PrintCell(int64_t v) { std::printf("%-16lld", (long long)v); }
inline void EndRow() { std::printf("\n"); }

/// Format version of the metrics snapshot embedded in BENCH_*.json files.
/// Bump when the snapshot layout changes so tooling can dispatch on it.
inline constexpr int kMetricsSnapshotVersion = 1;

/// Versioned observability snapshot for embedding into bench result files:
/// the full metrics registry plus the per-span-name trace summary. Returns a
/// JSON object; emit it under a "metrics_snapshot" key.
inline std::string MetricsSnapshotJson() {
  std::string out = "{\"version\": ";
  out += std::to_string(kMetricsSnapshotVersion);
  out += ", \"metrics\": ";
  out += MetricsRegistry::Global().ToJson();
  out += ", \"trace_summary\": ";
  out += TraceCollector::Global().SummaryJson();
  out += "}";
  return out;
}

/// Fails the binary loudly on error (benches have no recovery path).
#define BENCH_CHECK_OK(expr)                                          \
  do {                                                                \
    auto _st = (expr);                                                \
    if (!_st.ok()) {                                                  \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__, __LINE__,   \
                   _st.ToString().c_str());                           \
      std::exit(1);                                                   \
    }                                                                 \
  } while (0)

/// Fails the binary loudly when a result check does not hold.
#define BENCH_CHECK(cond)                                             \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "FATAL %s:%d: check failed: %s\n",         \
                   __FILE__, __LINE__, #cond);                        \
      std::exit(1);                                                   \
    }                                                                 \
  } while (0)

}  // namespace dl2sql::bench
