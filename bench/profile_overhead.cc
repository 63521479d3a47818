/// \file profile_overhead.cc
/// \brief Guard: fully-enabled resource accounting must cost < 5%.
///
/// Runs a fig8-style serving mix (hash join, hash aggregation, batched nUDF
/// projection) through the Database twice — once with the MemTracker gate
/// enabled, once with DL2SQL_MEM_TRACKER=OFF semantics (runtime-disabled) —
/// and fails when the median enabled/disabled ratio exceeds the budget. The
/// enabled pass also sanity-checks the accounting itself: every mix
/// statement must land in system.query_profiles with a positive memory
/// peak, so the guard cannot pass by accidentally measuring a no-op path.
///
/// Anti-flake measures mirror bench/trace_overhead.cc: the default 5%
/// threshold is overridable through DL2SQL_PROFILE_OVERHEAD_PCT (e.g. 15 on
/// noisy shared CI runners), and the measurement is retried best-of-3 — one
/// quiet attempt passes, so a single scheduler hiccup cannot fail the build.
///
/// Emits BENCH_profile.json (mix_on_sec / mix_off_sec / overhead_ratio plus
/// hardware_concurrency) for scripts/check_bench_regression.py.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/mem_tracker.h"
#include "common/timer.h"
#include "db/database.h"

using namespace dl2sql;      // NOLINT
using namespace dl2sql::db;  // NOLINT

namespace {

constexpr int64_t kFactRows = 8000;
constexpr int64_t kDimRows = 64;
constexpr int kMixesPerRep = 2;
constexpr int kReps = 7;
constexpr int kAttempts = 3;  // best-of-3: any quiet attempt passes

// The same three statement shapes the fig8 mixed workload exercises:
// relational join, aggregation, and batched nUDF inference.
const char* const kMixSql[] = {
    "SELECT F.id, D.w FROM fact F INNER JOIN dim D ON F.grp = D.id "
    "WHERE F.val % 3 = 1",
    "SELECT grp, count(*) AS c, sum(val) AS s FROM fact GROUP BY grp",
    "SELECT id, nudf_affine(val) AS p FROM fact WHERE id % 2 = 0",
};

/// Overhead budget as a ratio (default 1.05 = 5%);
/// DL2SQL_PROFILE_OVERHEAD_PCT overrides the percentage for noisier
/// environments.
double MaxOverheadRatio() {
  const char* env = std::getenv("DL2SQL_PROFILE_OVERHEAD_PCT");
  if (env != nullptr) {
    const double pct = std::atof(env);
    if (pct > 0) return 1.0 + pct / 100.0;
  }
  return 1.05;
}

// volatile sink defeats whole-loop elimination without perturbing the loop.
volatile int64_t g_sink = 0;

void FillTables(Database* db) {
  // The nUDF result cache would collapse repeat mixes into cache hits and
  // the measurement would stop covering the batch path; disable it.
  CacheOptions cache;
  cache.enable_nudf_cache = false;
  db->set_cache_options(cache);

  TableSchema fact_schema({{"id", DataType::kInt64},
                           {"grp", DataType::kInt64},
                           {"val", DataType::kInt64}});
  Table fact{fact_schema};
  for (int64_t i = 0; i < kFactRows; ++i) {
    DL2SQL_CHECK(fact.AppendRow({Value::Int(i),
                                 Value::Int((i * 7919) % kDimRows),
                                 Value::Int((i * 104729 + 13) % 1000)})
                     .ok());
  }
  DL2SQL_CHECK(db->RegisterTable("fact", std::move(fact)).ok());

  TableSchema dim_schema({{"id", DataType::kInt64}, {"w", DataType::kInt64}});
  Table dim{dim_schema};
  for (int64_t i = 0; i < kDimRows; ++i) {
    DL2SQL_CHECK(dim.AppendRow({Value::Int(i), Value::Int(i * i)}).ok());
  }
  DL2SQL_CHECK(db->RegisterTable("dim", std::move(dim)).ok());

  NUdfInfo info;
  info.model_name = "affine";
  db->udfs().RegisterNeural(
      "nudf_affine", DataType::kFloat64,
      [](const std::vector<Value>& args) -> Result<Value> {
        DL2SQL_ASSIGN_OR_RETURN(double x, args[0].AsDouble());
        return Value::Float(x * 2.0 + 1.0);
      },
      info,
      [](const std::vector<std::vector<Value>>& rows)
          -> Result<std::vector<Value>> {
        std::vector<Value> out;
        out.reserve(rows.size());
        for (const auto& row : rows) {
          DL2SQL_ASSIGN_OR_RETURN(double x, row[0].AsDouble());
          out.push_back(Value::Float(x * 2.0 + 1.0));
        }
        return out;
      },
      /*arity=*/1, /*parallel_safe=*/true);
}

int64_t RunMixOnce(Database* db) {
  int64_t rows = 0;
  for (const char* sql : kMixSql) {
    auto r = db->Execute(sql);
    DL2SQL_CHECK(r.ok());
    rows += r->num_rows();
  }
  return rows;
}

double MedianRepSeconds(Database* db) {
  std::vector<double> reps;
  reps.reserve(kReps);
  for (int r = 0; r < kReps; ++r) {
    Stopwatch watch;
    for (int m = 0; m < kMixesPerRep; ++m) g_sink = RunMixOnce(db);
    reps.push_back(watch.ElapsedSeconds());
  }
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

/// With accounting on, every mix statement must have recorded a positive
/// memory peak in system.query_profiles — proof the enabled pass actually
/// exercised the tracked path rather than a silently-degraded no-op.
bool ProfilesShowTrackedPeaks(Database* db) {
  auto r = db->Execute(
      "SELECT count(*) AS n FROM system.query_profiles "
      "WHERE mem_peak_bytes > 0");
  if (!r.ok() || r->num_rows() != 1) return false;
  return r->column(0).GetValue(0).int_value() >= 3;
}

}  // namespace

int main() {
  // The run flips the gate itself, so a DL2SQL_MEM_TRACKER=OFF environment
  // still measures both paths.
  Database database;
  FillTables(&database);

  // Warm-up evens out frequency scaling (and faults in the tables) before
  // the measured reps.
  MemTracker::SetEnabled(false);
  g_sink = RunMixOnce(&database);
  MemTracker::SetEnabled(true);
  g_sink = RunMixOnce(&database);
  if (!ProfilesShowTrackedPeaks(&database)) {
    std::fprintf(stderr,
                 "FATAL: system.query_profiles shows no positive memory "
                 "peaks with accounting enabled; the guard would measure a "
                 "broken path\n");
    return 1;
  }

  const double limit = MaxOverheadRatio();
  double best_ratio = 0;
  double best_on = 0;
  double best_off = 0;
  bool passed = false;
  for (int attempt = 1; attempt <= kAttempts && !passed; ++attempt) {
    // Interleave orderings so drift penalizes neither side.
    MemTracker::SetEnabled(false);
    const double off_a = MedianRepSeconds(&database);
    MemTracker::SetEnabled(true);
    const double on_a = MedianRepSeconds(&database);
    const double on_b = MedianRepSeconds(&database);
    MemTracker::SetEnabled(false);
    const double off_b = MedianRepSeconds(&database);
    MemTracker::SetEnabled(true);

    const double off = std::min(off_a, off_b);
    const double on = std::min(on_a, on_b);
    const double ratio = on / off;

    std::printf("attempt %d/%d:\n", attempt, kAttempts);
    std::printf("  accounting off median: %.6fs\n", off);
    std::printf("  accounting on  median: %.6fs\n", on);
    std::printf("  ratio: %.4f (limit %.2f)\n", ratio, limit);
    if (attempt == 1 || ratio < best_ratio) {
      best_ratio = ratio;
      best_on = on;
      best_off = off;
    }
    passed = ratio <= limit;
  }

  std::FILE* out = std::fopen("BENCH_profile.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open BENCH_profile.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"profile_overhead\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"fact_rows\": %lld,\n"
               "  \"mix_on_sec\": %.6f,\n"
               "  \"mix_off_sec\": %.6f,\n"
               "  \"overhead_ratio\": %.4f\n}\n",
               std::thread::hardware_concurrency(),
               static_cast<long long>(kFactRows), best_on, best_off,
               best_ratio);
  std::fclose(out);
  std::printf("wrote BENCH_profile.json\n");

  if (passed) {
    std::printf("OK: enabled accounting overhead within budget\n");
    return 0;
  }
  std::fprintf(stderr,
               "FAIL: enabled accounting costs %.1f%% (> %.0f%% budget) in "
               "every attempt\n",
               (best_ratio - 1.0) * 100, (limit - 1.0) * 100);
  return 1;
}
