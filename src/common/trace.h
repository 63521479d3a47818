/// \file trace.h
/// \brief Low-overhead hierarchical query tracing.
///
/// The paper's evidence is per-operator and per-clause cost breakdowns
/// (Figs. 9-13); with morsel-parallel execution those breakdowns need spans
/// that know which thread, which morsel, and which NN layer the time went to.
/// This layer provides:
///  - TraceSpan: RAII span recording [start, end) on the calling thread with
///    a nesting depth, collected into per-thread buffers (no shared state on
///    the hot path; one uncontended per-buffer lock per event).
///  - DL2SQL_TRACE_SPAN(category, name[, args]): the instrumentation macro.
///    While tracing is runtime-disabled (the default) a span costs one
///    relaxed atomic load.
///  - TraceCollector: process-wide sink. Snapshot(), Clear(),
///    WriteChromeTrace(path) (chrome://tracing / Perfetto "X" events) and
///    SummaryJson() (per-name aggregate, embedded in bench output).
///
/// Spans nest lexically per thread: engine phase -> plan node -> morsel / NN
/// layer. Cross-thread children (pool morsels under a main-thread operator)
/// appear on their worker's timeline row, which is exactly how Chrome's
/// viewer renders worker parallelism.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace dl2sql {

/// One finished span. `name`/`category` are stable C strings or small owned
/// strings; `args` is a preformatted JSON object body ("\"k\":1") or empty.
struct TraceEvent {
  std::string name;
  const char* category = "";
  std::string args;       ///< JSON object body without braces; may be empty
  int64_t start_us = 0;   ///< microseconds since trace epoch
  int64_t duration_us = 0;
  int32_t tid = 0;        ///< compact per-process thread id
  int32_t depth = 0;      ///< nesting depth on its thread at start
  int32_t pid = 1;        ///< Chrome-trace lane; coordinator maps shards here
  uint64_t trace_id = 0;  ///< distributed trace id; 0 = untraced local span
};

/// \brief Distributed trace context: the coordinator-assigned 64-bit trace id
/// plus the parent span id, propagated to shards via the wire protocol.
///
/// A thread-local "current" context is installed with ScopedTraceContext;
/// TraceSpan stamps it onto every event it records, so shard-side spans (and
/// query-log records) carry the coordinator's ids without any per-span plumbing.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;

  bool active() const { return trace_id != 0; }
};

/// The calling thread's current trace context ({0,0} when none installed).
TraceContext CurrentTraceContext();

/// RAII installer for the thread-local trace context; restores the previous
/// context on destruction so contexts nest (coordinator inside a traced
/// client statement keeps the outermost ids).
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
};

/// \brief Process-wide trace sink.
///
/// Threads append finished spans to thread-local buffers registered here.
/// Reads (Snapshot/Write/Clear) briefly lock each buffer; appends lock only
/// the appending thread's own buffer, which is uncontended in steady state.
class TraceCollector {
 public:
  static TraceCollector& Global();

  /// Runtime switch; tracing starts disabled so instrumented code paths pay
  /// one relaxed atomic load until a tool opts in.
  void SetEnabled(bool enabled);
  bool enabled() const;

  /// Drops all recorded events (buffers stay registered).
  void Clear();

  /// Copies out every recorded event, ordered by start time.
  std::vector<TraceEvent> Snapshot() const;

  /// Events stamped with `trace_id` that started at or after `min_start_us`,
  /// ordered by start time. Shard servers use this to extract exactly the
  /// spans of one traced statement for the wire trailer.
  std::vector<TraceEvent> SnapshotTrace(uint64_t trace_id,
                                        int64_t min_start_us = 0) const;

  /// Total recorded events across all thread buffers.
  int64_t EventCount() const;

  /// Writes the Chrome trace-event JSON ("traceEvents" array of complete "X"
  /// events) loadable in about://tracing or ui.perfetto.dev.
  Status WriteChromeTrace(const std::string& path) const;

  /// Chrome trace-event JSON as a string (testing / embedding).
  std::string ToChromeTraceJson() const;

  /// Chrome trace-event JSON for an explicit event list. Honors each event's
  /// `pid`, so a coordinator can merge shard-shipped spans into one file with
  /// one lane per shard (see Coordinator::WriteClusterTrace).
  static std::string ChromeTraceJson(const std::vector<TraceEvent>& events);

  /// Aggregated per-span-name {"count", "total_us"} JSON object, for
  /// embedding a compact trace summary into bench result files.
  std::string SummaryJson() const;

  /// Per-name aggregate over all recorded spans, sorted by name. Structured
  /// counterpart of SummaryJson(), used by the system.spans virtual table.
  struct SpanSummary {
    std::string name;
    int64_t count = 0;
    int64_t total_us = 0;
    int64_t max_us = 0;
  };
  std::vector<SpanSummary> Summary() const;

  /// Microseconds since the process trace epoch (steady clock).
  static int64_t NowMicros();

  /// Compact id of the calling thread (assigned on first use, starts at 0).
  static int32_t CurrentThreadId();

  // Internal: called by TraceSpan. Appends to the calling thread's buffer.
  void Record(TraceEvent event);

 private:
  TraceCollector();
  struct Impl;
  Impl* impl_;  // leaked singleton state: safe during static destruction
};

/// \brief RAII span: records one TraceEvent on destruction when tracing was
/// enabled at construction. Cheap no-op otherwise.
class TraceSpan {
 public:
  TraceSpan(const char* category, std::string name)
      : TraceSpan(category, std::move(name), std::string()) {}

  /// `args` is a JSON object body, e.g. "\"worker\":2,\"rows\":4096".
  TraceSpan(const char* category, std::string name, std::string args);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool active_;
  const char* category_ = "";
  std::string name_;
  std::string args_;
  int64_t start_us_ = 0;
  int32_t depth_ = 0;
};

namespace internal {
/// Per-thread span nesting depth (managed by TraceSpan).
int32_t TraceDepth();
}  // namespace internal

}  // namespace dl2sql

#define DL2SQL_TRACE_CONCAT_(a, b) a##b
#define DL2SQL_TRACE_CONCAT(a, b) DL2SQL_TRACE_CONCAT_(a, b)
/// Opens a span covering the rest of the enclosing scope. Argument
/// expressions are evaluated even when tracing is runtime-disabled, so hot
/// sites should pass literals (SSO, no allocation) and guard dynamically
/// built args behind TraceCollector::Global().enabled().
#define DL2SQL_TRACE_SPAN(category, ...)                                   \
  ::dl2sql::TraceSpan DL2SQL_TRACE_CONCAT(dl2sql_trace_span_, __LINE__)(   \
      category, __VA_ARGS__)
