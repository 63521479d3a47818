/// \file harness.h
/// \brief Shared plumbing of the workload runner: argument parsing, the
/// line protocol read by run.py, the timed closed loop, counter deltas and
/// the traced per-layer report.
///
/// Line protocol (stdout, one record per line, space separated):
///   setup <seconds>                          one set-up repetition
///   op <phase> <pass> <class> <seconds> <ok> one finished operation (serve_rw
///                                            gives the session, not the pass)
///   window <phase> <seconds>                 length of a timed window
///   value <name> <number>                    a raw value (peak RSS, ...)
///   layer <name> <number> <self_ms>          a per-layer metric, in the unit
///                                            BENCHMARK.json gives it
///   note <text>                              human-readable report line
///   done                                     the run finished normally
/// Phases: "e2e" (untraced run), "untraced" and "traced" (the alternating
/// windows of a traced run).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"

namespace dl2sql::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for scratch files (paged tablespace, traces); must exist.
  std::string scratch_dir = ".";
  /// Self-check hook: corrupt the result of the first operation of this
  /// class so the harness must count it as failed.
  std::string plant_wrong_class;
};

/// Prints one protocol record, or several separated by newlines, in one
/// stdio call, so the records of concurrent threads never mix. Records are
/// flushed at least once per pass, so a crashed run keeps what it finished
/// before the crash.
void Emit(const std::string& lines, bool flush = true);
void EmitSetup(double seconds);
void EmitValue(const std::string& name, double value);
void EmitNote(const std::string& text);

/// One operation of a workload's fixed mix: its class and a body returning
/// true iff it succeeded and its output passed the workload's check. The
/// body receives the operation's wall time so far and may overwrite it with
/// the time of the call it measures, leaving its output check out.
struct Op {
  std::string cls;
  std::function<bool(double* seconds)> run;
};

/// Runs `pass_ops` (one pass of the fixed mix) repeatedly in a closed loop
/// until `seconds` have elapsed; a new operation never starts after the
/// deadline. Each operation runs under its own trace id. Emits one `op`
/// record per operation (pass numbers stay unique across calls) and a
/// `window` record. Returns the passes run, the last one counted by the
/// share of its operations that ran.
double RunWindow(const std::string& phase, double seconds,
                  const std::vector<Op>& pass_ops);

/// A traced run alternates this many equal windows of --seconds, untraced
/// and traced, so a change of host speed during the run falls on both sides
/// of the trace-overhead comparison.
constexpr int kTraceWindows = 6;

/// One timed window of a workload: runs its operations for `seconds` under
/// `phase`, emits their records and the window record, and returns the
/// passes it ran.
using WindowFn =
    std::function<double(const std::string& phase, double seconds)>;

/// Runs kTraceWindows alternating windows of `seconds` in all: "untraced"
/// ones with the TraceCollector off, "traced" ones with it on. Leaves
/// tracing on; returns the passes run.
double RunAlternating(double seconds, const WindowFn& window);

/// A fresh trace id for one operation (unique within the process, never 0).
uint64_t NextTraceId();

/// True when `cls` is the class whose first result the self-check corrupts
/// (consumed on first use).
bool ShouldPlantWrong(const Args& args, const std::string& cls);

/// Peak resident set of this process in MB (getrusage).
double PeakRssMb();

/// Span around one benchmark call into a module's public function. The
/// category "bench" marks the spans the per-layer report summarizes.
class LayerSpan {
 public:
  explicit LayerSpan(std::string name) : span_("bench", std::move(name)) {}

 private:
  TraceSpan span_;
};

/// Mean duration and mean self time (duration minus the part covered by
/// child spans on the same thread) per "bench" span name, in microseconds.
struct SpanStats {
  int64_t count = 0;
  double mean_us = 0;
  double mean_self_us = 0;
};
std::map<std::string, SpanStats> SummarizeBenchSpans();

/// Emits a per-layer metric; `self_ms` < 0 when the metric is not a span.
/// run.py reads 0 for a metric a run never emits.
void EmitLayer(const std::string& name, double value, double self_ms = -1);

/// Emits the span-derived per-layer metrics of the spans this workload
/// opened, and server.session_overhead_us.
void EmitSpanLayers(const std::map<std::string, SpanStats>& spans);

/// Emits the per-layer metrics derived from counters the modules publish,
/// diffed over a traced window of `passes` passes (counts are per pass) with
/// `infer_ops` nUDF serving statements.
void EmitSharedLayers(const MetricsSnapshot& before,
                      const MetricsSnapshot& after, double passes,
                      int64_t infer_ops);

/// Writes the Chrome trace of everything recorded so far.
void WriteChromeTrace(const Args& args);

/// Workload entry points; each returns the process exit code.
int RunFig8(const Args& args, bool server_profile);
int RunServeRw(const Args& args);
int RunOocoreJoin(const Args& args);

}  // namespace dl2sql::perfbench
