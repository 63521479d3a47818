/// \file trace_overhead.cc
/// \brief Guard: tracing compiled in but runtime-disabled must cost < 5%.
///
/// A disabled DL2SQL_TRACE_SPAN is one relaxed atomic load plus two empty
/// string constructions; this binary proves that stays in the noise against
/// a realistic per-span workload (a few microseconds of arithmetic, the
/// scale of one morsel or one small NN layer). Exits non-zero when the
/// median instrumented/plain ratio exceeds the threshold, so CI fails if a
/// future change makes "tracing off" expensive.
///
/// Run with --enabled to instead sanity-check that enabled tracing records
/// events (no timing guard; enabled tracing is allowed to cost more).
///
/// Run with --distributed for the cluster leg: an in-process coordinator +
/// 2-shard loopback cluster executes a scatter-gather mix (pushdown select,
/// merge aggregates) with the collector runtime-disabled vs runtime-enabled.
/// The disabled path's <5% claim is enforced structurally — tracing off must
/// ship zero `.trace` headers and zero META trailer bytes, making the wire
/// traffic byte-identical to a build without distributed observability — and
/// its wall time is emitted as dist_mix_off_sec so
/// scripts/check_bench_regression.py catches drift against the committed
/// baseline. Enabled tracing turns on the whole cross-node pipeline (wire
/// headers, shard-side span collection, trailer shipping, coordinator
/// timeline folding); it is allowed to cost, but a generous ratio budget
/// (default 50%, DL2SQL_DIST_TRACE_OVERHEAD_PCT overrides) catches
/// pathological regressions like a trailer-size blowup. Merges the dist_*
/// keys into BENCH_profile.json — run it after bench_profile_overhead,
/// which rewrites that file.
///
/// Anti-flake measures: the default 5% threshold is overridable through
/// DL2SQL_TRACE_OVERHEAD_PCT (e.g. 10 on noisy shared CI runners), and the
/// whole measurement is retried best-of-3 — one quiet attempt passes, so a
/// single scheduler hiccup cannot fail the build.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "common/timer.h"
#include "common/trace.h"
#include "db/database.h"
#include "server/session.h"
#include "server/tcp_server.h"

using namespace dl2sql;  // NOLINT

namespace {

constexpr int kWorkloadElems = 4096;  // one morsel's worth of arithmetic
constexpr int kCallsPerRep = 2000;
constexpr int kReps = 9;
constexpr int kAttempts = 3;  // best-of-3: any quiet attempt passes

/// Overhead budget as a ratio (default 1.05 = 5%); DL2SQL_TRACE_OVERHEAD_PCT
/// overrides the percentage for noisier environments.
double MaxOverheadRatio() {
  const char* env = std::getenv("DL2SQL_TRACE_OVERHEAD_PCT");
  if (env != nullptr) {
    const double pct = std::atof(env);
    if (pct > 0) return 1.0 + pct / 100.0;
  }
  return 1.05;
}

// volatile sink defeats whole-loop elimination without perturbing the loop.
volatile double g_sink = 0;

double WorkloadPlain(const std::vector<double>& data) {
  double sum = 0;
  for (double v : data) sum += v * 1.0000001 + 0.5;
  return sum;
}

double WorkloadTraced(const std::vector<double>& data) {
  DL2SQL_TRACE_SPAN("bench", "overhead_probe");
  double sum = 0;
  for (double v : data) sum += v * 1.0000001 + 0.5;
  return sum;
}

template <typename Fn>
double MedianRepSeconds(const std::vector<double>& data, Fn fn) {
  std::vector<double> reps;
  reps.reserve(kReps);
  for (int r = 0; r < kReps; ++r) {
    Stopwatch watch;
    for (int c = 0; c < kCallsPerRep; ++c) g_sink = fn(data);
    reps.push_back(watch.ElapsedSeconds());
  }
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

// --- distributed leg -------------------------------------------------------

constexpr int kDistShards = 2;
constexpr int64_t kDistRows = 512;
constexpr int kDistMixesPerRep = 4;
constexpr int kDistReps = 5;

/// The scatter-gather shapes the coordinator optimizes: a pushdown filter
/// (ships verbatim, concatenates) and two merge aggregates (partials
/// re-merge). No fallback shapes — a gather would swamp the wire-level
/// overhead this leg guards.
const char* const kDistMixSql[] = {
    "SELECT id, val FROM fact WHERE val % 3 = 1",
    "SELECT grp, count(*) AS c, sum(val) AS s FROM fact GROUP BY grp",
    "SELECT sum(val) FROM fact",
};

/// Enabled-tracing ratio budget for the distributed leg (default 1.5 = 50%:
/// the live pipeline snapshots spans and ships trailers per statement, so it
/// legitimately costs; the budget only catches pathological regressions).
/// DL2SQL_DIST_TRACE_OVERHEAD_PCT overrides.
double MaxDistOverheadRatio() {
  const char* env = std::getenv("DL2SQL_DIST_TRACE_OVERHEAD_PCT");
  if (env != nullptr) {
    const double pct = std::atof(env);
    if (pct > 0) return 1.0 + pct / 100.0;
  }
  return 1.5;
}

/// One in-process shard: its own Database + QueryService behind a real
/// loopback TcpServer, so the measured path includes the wire protocol.
struct ShardProc {
  std::unique_ptr<dl2sql::db::Database> db =
      std::make_unique<dl2sql::db::Database>();
  std::unique_ptr<dl2sql::server::QueryService> service;
  std::unique_ptr<dl2sql::server::TcpServer> tcp;
};

/// Re-emits BENCH_profile.json with the dist_* keys replaced: stale dist_
/// lines drop, the fresh ones splice in before the closing brace, everything
/// bench_profile_overhead wrote survives. Degrades to a fresh minimal
/// document when the file is absent (standalone runs).
bool MergeDistKeysIntoProfileJson(double on_sec, double off_sec,
                                  double ratio) {
  std::string base = "{\n  \"bench\": \"profile_overhead\"\n}\n";
  {
    std::ifstream in("BENCH_profile.json");
    if (in.good()) {
      std::ostringstream buf;
      buf << in.rdbuf();
      base = buf.str();
    }
  }
  std::string filtered;
  size_t pos = 0;
  while (pos < base.size()) {
    size_t eol = base.find('\n', pos);
    if (eol == std::string::npos) eol = base.size();
    const std::string line = base.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.find("\"dist_") == std::string::npos) filtered += line + "\n";
  }
  const size_t close = filtered.rfind('}');
  if (close == std::string::npos) return false;
  std::string head = filtered.substr(0, close);
  while (!head.empty() && (head.back() == '\n' || head.back() == ' ')) {
    head.pop_back();
  }
  if (!head.empty() && head.back() != '{' && head.back() != ',') head += ',';
  char tail[256];
  std::snprintf(tail, sizeof(tail),
                "\n  \"dist_mix_on_sec\": %.6f,\n"
                "  \"dist_mix_off_sec\": %.6f,\n"
                "  \"dist_overhead_ratio\": %.4f\n}\n",
                on_sec, off_sec, ratio);
  std::ofstream out("BENCH_profile.json", std::ios::trunc);
  if (!out.good()) return false;
  out << head << tail;
  return out.good();
}

int RunDistributedLeg() {
  using dl2sql::server::QueryService;
  using dl2sql::server::ServiceOptions;
  using dl2sql::server::TcpServer;
  using dl2sql::server::TcpServerOptions;

  std::vector<std::unique_ptr<ShardProc>> shards;
  std::vector<dl2sql::cluster::ShardEndpoint> endpoints;
  for (int s = 0; s < kDistShards; ++s) {
    auto shard = std::make_unique<ShardProc>();
    shard->service =
        std::make_unique<QueryService>(shard->db.get(), ServiceOptions{});
    shard->tcp =
        std::make_unique<TcpServer>(shard->service.get(), TcpServerOptions{});
    auto st = shard->tcp->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "shard %d start failed: %s\n", s,
                   st.ToString().c_str());
      return 1;
    }
    endpoints.push_back({"127.0.0.1", shard->tcp->port()});
    shards.push_back(std::move(shard));
  }
  dl2sql::db::Database co_db;
  QueryService service(&co_db, ServiceOptions{});
  dl2sql::cluster::ShardClientOptions client_opts;
  client_opts.connect_retry_ms = 2000;
  client_opts.statement_timeout_ms = 10000;
  auto coordinator = std::make_unique<dl2sql::cluster::Coordinator>(
      &co_db, std::move(endpoints), client_opts);
  service.set_distributed_executor(coordinator.get());
  auto session = service.CreateSession();

  auto exec = [&](const std::string& sql) -> bool {
    auto r = session->Execute(sql);
    if (!r.ok()) {
      std::fprintf(stderr, "distributed statement failed: %s\n  %s\n",
                   r.status().ToString().c_str(), sql.c_str());
      return false;
    }
    g_sink = static_cast<double>(r->num_rows());
    return true;
  };

  bool loaded = exec(
      "CREATE TABLE fact (id int64, grp int64, val int64) "
      "PARTITION BY HASH (id)");
  if (loaded) {
    std::string values;
    for (int64_t i = 0; i < kDistRows; ++i) {
      if (i > 0) values += ", ";
      values += "(" + std::to_string(i) + ", " + std::to_string(i % 16) +
                ", " + std::to_string((i * 104729 + 13) % 1000) + ")";
    }
    loaded = exec("INSERT INTO fact VALUES " + values);
  }

  // Structural guard for the disabled path: tracing off must put nothing
  // extra on the wire — no `.trace` header, no META trailer — so its only
  // possible overhead is the (regression-checked) local bookkeeping.
  bool structural_ok = false;
  if (loaded) {
    TraceCollector::Global().SetEnabled(false);
    auto untraced = coordinator->shard(0)->Execute("SELECT 1");
    TraceContext ctx{0xbe9cbe9c, 0x1};
    auto traced = coordinator->shard(0)->Execute("SELECT 1", 0.0, &ctx);
    if (!untraced.ok() || !traced.ok()) {
      std::fprintf(stderr, "FATAL: structural probe statements failed\n");
    } else if (!untraced->meta.empty()) {
      std::fprintf(stderr,
                   "FATAL: tracing-disabled statement shipped %zu trailer "
                   "line(s); the off path is no longer byte-identical\n",
                   untraced->meta.size());
    } else if (traced->meta.empty()) {
      std::fprintf(stderr,
                   "FATAL: traced statement shipped no trailer; the guard "
                   "would measure a dead pipeline\n");
    } else {
      structural_ok = true;
    }
  }

  int rc = 1;
  if (loaded && structural_ok) {
    auto median_rep_seconds = [&]() -> double {
      std::vector<double> reps;
      reps.reserve(kDistReps);
      for (int r = 0; r < kDistReps; ++r) {
        Stopwatch watch;
        for (int m = 0; m < kDistMixesPerRep; ++m) {
          for (const char* sql : kDistMixSql) {
            if (!exec(sql)) return -1;
          }
        }
        reps.push_back(watch.ElapsedSeconds());
      }
      std::sort(reps.begin(), reps.end());
      return reps[reps.size() / 2];
    };

    TraceCollector& collector = TraceCollector::Global();
    auto set_tracing = [&](bool on) {
      // Clear between sides so the enabled runs never pay ring-wraparound
      // costs that the disabled side cannot see.
      collector.SetEnabled(on);
      collector.Clear();
    };

    // Warm-up: connections dialed, tables faulted in, both code paths run.
    set_tracing(false);
    double warm = median_rep_seconds();
    set_tracing(true);
    if (warm >= 0 && median_rep_seconds() < 0) warm = -1;

    const double limit = MaxDistOverheadRatio();
    double best_ratio = 0;
    double best_on = 0;
    double best_off = 0;
    bool passed = false;
    for (int attempt = 1; warm >= 0 && attempt <= kAttempts && !passed;
         ++attempt) {
      // Interleave orderings so drift penalizes neither side.
      set_tracing(false);
      const double off_a = median_rep_seconds();
      set_tracing(true);
      const double on_a = median_rep_seconds();
      const double on_b = median_rep_seconds();
      set_tracing(false);
      const double off_b = median_rep_seconds();
      if (off_a < 0 || on_a < 0 || on_b < 0 || off_b < 0) break;

      const double off = std::min(off_a, off_b);
      const double on = std::min(on_a, on_b);
      const double ratio = on / off;
      std::printf("distributed attempt %d/%d:\n", attempt, kAttempts);
      std::printf("  tracing off median: %.6fs\n", off);
      std::printf("  tracing on  median: %.6fs (headers + trailers live)\n",
                  on);
      std::printf("  ratio: %.4f (limit %.2f)\n", ratio, limit);
      if (attempt == 1 || ratio < best_ratio) {
        best_ratio = ratio;
        best_on = on;
        best_off = off;
      }
      passed = ratio <= limit;
    }
    collector.SetEnabled(false);
    collector.Clear();

    if (best_off > 0) {
      if (!MergeDistKeysIntoProfileJson(best_on, best_off, best_ratio)) {
        std::fprintf(stderr, "FATAL: cannot update BENCH_profile.json\n");
      } else {
        std::printf("merged dist_* keys into BENCH_profile.json\n");
      }
    }
    if (passed) {
      std::printf("OK: distributed tracing overhead within budget\n");
      rc = 0;
    } else if (best_off > 0) {
      std::fprintf(stderr,
                   "FAIL: distributed tracing costs %.1f%% (> %.0f%% budget) "
                   "in every attempt\n",
                   (best_ratio - 1.0) * 100, (limit - 1.0) * 100);
    }
  }

  // Teardown order mirrors lindb_server: detach the executor before the
  // coordinator restores the system-table providers it decorated.
  session.reset();
  service.set_distributed_executor(nullptr);
  coordinator.reset();
  for (auto& shard : shards) shard->tcp->Stop();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--distributed") == 0) {
    return RunDistributedLeg();
  }
  std::vector<double> data(kWorkloadElems);
  for (int i = 0; i < kWorkloadElems; ++i) data[i] = i * 0.001;

  if (argc > 1 && std::strcmp(argv[1], "--enabled") == 0) {
    TraceCollector::Global().Clear();
    TraceCollector::Global().SetEnabled(true);
    for (int c = 0; c < 100; ++c) g_sink = WorkloadTraced(data);
    TraceCollector::Global().SetEnabled(false);
    const int64_t events = TraceCollector::Global().EventCount();
    const int64_t expected = 100;
    std::printf("enabled-mode events recorded: %lld (expected %lld)\n",
                static_cast<long long>(events),
                static_cast<long long>(expected));
    return events == expected ? 0 : 1;
  }

  // Warm-up evens out frequency scaling before the measured reps.
  for (int c = 0; c < kCallsPerRep; ++c) g_sink = WorkloadPlain(data);

  const double limit = MaxOverheadRatio();
  double best_ratio = 0;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    // Interleave orderings so drift penalizes neither side.
    const double plain_a = MedianRepSeconds(data, WorkloadPlain);
    const double traced_a = MedianRepSeconds(data, WorkloadTraced);
    const double traced_b = MedianRepSeconds(data, WorkloadTraced);
    const double plain_b = MedianRepSeconds(data, WorkloadPlain);
    const double plain = std::min(plain_a, plain_b);
    const double traced = std::min(traced_a, traced_b);
    const double ratio = traced / plain;

    std::printf("attempt %d/%d:\n", attempt, kAttempts);
    std::printf("  plain   median: %.6fs\n", plain);
    std::printf("  traced  median: %.6fs (tracing disabled at runtime)\n",
                traced);
    std::printf("  ratio: %.4f (limit %.2f)\n", ratio, limit);
    if (attempt == 1 || ratio < best_ratio) best_ratio = ratio;
    if (ratio <= limit) {
      std::printf("OK: disabled tracing overhead within budget\n");
      return 0;
    }
  }
  std::fprintf(stderr,
               "FAIL: disabled tracing costs %.1f%% (> %.0f%% budget) in "
               "every attempt\n",
               (best_ratio - 1.0) * 100, (limit - 1.0) * 100);
  return 1;
}
