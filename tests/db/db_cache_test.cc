/// \file db_cache_test.cc
/// \brief Cross-query caching at the Database level: nUDF result memoization
/// (off-vs-on bit-identity, recomputation skipping, model-reload
/// invalidation), prepared-plan caching (DML/DDL invalidation including
/// drop/recreate), ExplainAnalyze counter visibility, and cached batched
/// nUDFs under morsel parallelism (TSAN-exercised in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/device.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "db/database.h"

namespace dl2sql::db {
namespace {

constexpr int64_t kRows = 2000;

std::shared_ptr<Device> MakeCpuDevice(int threads) {
  DeviceProfile profile = Device::ServerCpuProfile();
  profile.name = "cache-cpu-" + std::to_string(threads);
  profile.num_threads = threads;
  return std::make_shared<Device>(profile);
}

void FillFact(Database* db) {
  TableSchema schema({{"id", DataType::kInt64}, {"val", DataType::kInt64}});
  Table fact{schema};
  for (int64_t i = 0; i < kRows; ++i) {
    DL2SQL_CHECK(
        fact.AppendRow({Value::Int(i), Value::Int((i * 37) % 500)}).ok());
  }
  DL2SQL_CHECK(db->RegisterTable("fact", std::move(fact)).ok());
}

/// Deterministic "model" with an explicit fingerprint; `evals` counts rows
/// that actually reached the body (the quantity memoization must shrink).
void RegisterFingerprintedNudf(Database* db, uint64_t fingerprint,
                               double scale, std::atomic<int64_t>* evals) {
  NUdfInfo info;
  info.model_name = "affine-" + std::to_string(fingerprint);
  info.fingerprint = fingerprint;
  db->udfs().RegisterNeural(
      "nudf_model", DataType::kFloat64,
      [evals, scale](const std::vector<Value>& args) -> Result<Value> {
        DL2SQL_ASSIGN_OR_RETURN(double x, args[0].AsDouble());
        evals->fetch_add(1, std::memory_order_relaxed);
        return Value::Float(x * scale + 1.0);
      },
      info,
      [evals, scale](const std::vector<std::vector<Value>>& rows)
          -> Result<std::vector<Value>> {
        std::vector<Value> out;
        out.reserve(rows.size());
        for (const auto& row : rows) {
          DL2SQL_ASSIGN_OR_RETURN(double x, row[0].AsDouble());
          out.push_back(Value::Float(x * scale + 1.0));
        }
        evals->fetch_add(static_cast<int64_t>(rows.size()),
                         std::memory_order_relaxed);
        return out;
      },
      /*arity=*/1, /*parallel_safe=*/true);
}

/// Every cell of every row, so equality means bit-identical results.
std::string Dump(const Table& t) {
  std::string out;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    for (int c = 0; c < t.num_columns(); ++c) {
      out += t.column(c).GetValue(r).ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

CacheOptions AllOff() {
  CacheOptions off;
  off.enable_nudf_cache = false;
  off.enable_plan_cache = false;
  return off;
}

/// Forces defaults (both caches ON) so these tests hold even when the suite
/// runs under DL2SQL_CACHE=OFF (the off-vs-on CI pass).
void ForceCachesOn(Database* db) { db->set_cache_options(CacheOptions{}); }

TEST(DbCacheTest, OffVsOnResultsAreBitIdentical) {
  std::atomic<int64_t> evals_on{0};
  std::atomic<int64_t> evals_off{0};
  Database cached;
  Database uncached;
  ForceCachesOn(&cached);
  uncached.set_cache_options(AllOff());
  FillFact(&cached);
  FillFact(&uncached);
  RegisterFingerprintedNudf(&cached, 0x1111, 2.0, &evals_on);
  RegisterFingerprintedNudf(&uncached, 0x1111, 2.0, &evals_off);

  const std::string sql =
      "SELECT id, nudf_model(val) AS p FROM fact WHERE val < 400";
  for (int rep = 0; rep < 3; ++rep) {
    auto a = cached.Execute(sql);
    auto b = uncached.Execute(sql);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(Dump(*a), Dump(*b)) << "rep " << rep;
  }
  // The uncached engine recomputed every rep; the cached one did strictly
  // less work after warmup while producing the same bytes.
  EXPECT_LT(evals_on.load(), evals_off.load());
}

TEST(DbCacheTest, WarmNudfCacheSkipsModelWork) {
  std::atomic<int64_t> evals{0};
  Database db;
  ForceCachesOn(&db);
  FillFact(&db);
  RegisterFingerprintedNudf(&db, 0x2222, 2.0, &evals);
  Counter* batches = MetricsRegistry::Global().counter("nudf.batches");

  auto cold = db.Execute("SELECT nudf_model(val) AS p FROM fact");
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const int64_t evals_cold = evals.load();
  // Probes precede inserts within a morsel, so the cold run still computes
  // every row; the payoff is cross-query.
  EXPECT_LE(evals_cold, kRows);
  EXPECT_GT(evals_cold, 0);

  const int64_t calls_before = db.neural_calls();
  const int64_t batches_before = batches->value();
  auto warm = db.Execute("SELECT nudf_model(val) AS p FROM fact");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(Dump(*cold), Dump(*warm));
  // Fully warm: zero rows reached the model, zero real batches ran...
  EXPECT_EQ(evals.load(), evals_cold);
  EXPECT_EQ(batches->value(), batches_before);
  // ...yet the semantic tallies still count rows answered by the model.
  EXPECT_EQ(db.neural_calls() - calls_before, kRows);
}

TEST(DbCacheTest, ModelReloadInvalidatesStaleResults) {
  std::atomic<int64_t> evals{0};
  Database db;
  ForceCachesOn(&db);
  FillFact(&db);
  RegisterFingerprintedNudf(&db, 0x3333, 2.0, &evals);
  auto v1 = db.Execute("SELECT nudf_model(val) AS p FROM fact");
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  ASSERT_GT(db.nudf_cache()->entries(), 0);

  // Redeploy under the same name with new "weights" (scale 3, fingerprint
  // changed): the replacement hook must drop every memoized result.
  RegisterFingerprintedNudf(&db, 0x4444, 3.0, &evals);
  EXPECT_EQ(db.nudf_cache()->entries(), 0);

  auto v2 = db.Execute("SELECT nudf_model(val) AS p FROM fact");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_NE(Dump(*v1), Dump(*v2));  // stale entries were never served

  Database fresh;
  fresh.set_cache_options(AllOff());
  FillFact(&fresh);
  std::atomic<int64_t> fresh_evals{0};
  RegisterFingerprintedNudf(&fresh, 0x4444, 3.0, &fresh_evals);
  auto expect = fresh.Execute("SELECT nudf_model(val) AS p FROM fact");
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(Dump(*v2), Dump(*expect));
}

TEST(DbCacheTest, PlanCacheReusesPlanUntilDmlInvalidates) {
  Database db;
  ForceCachesOn(&db);
  FillFact(&db);
  const std::string sql = "SELECT id, val FROM fact WHERE val < 100";

  auto r1 = db.Execute(sql);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  const PlanNode* p1 = db.last_plan().get();

  auto r2 = db.Execute(sql);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(db.last_plan().get(), p1);  // served from the plan cache
  EXPECT_EQ(Dump(*r1), Dump(*r2));

  // DML bumps the catalog version of `fact`: the cached plan is stale.
  ASSERT_TRUE(db.Execute("INSERT INTO fact VALUES (99999, 5)").ok());
  auto r3 = db.Execute(sql);
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_NE(db.last_plan().get(), p1);  // replanned
  EXPECT_EQ(r3->num_rows(), r1->num_rows() + 1);  // and sees the new row

  const PlanNode* p3 = db.last_plan().get();
  auto r4 = db.Execute(sql);
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(db.last_plan().get(), p3);  // re-cached after the replan
}

#if !defined(DL2SQL_TRACING_DISABLED)
TEST(DbCacheTest, PlanProbeSpanEndsBeforeTheCachedPlanRuns) {
  Database db;
  ForceCachesOn(&db);
  FillFact(&db);
  const std::string sql = "SELECT id, val FROM fact WHERE val < 100";
  ASSERT_TRUE(db.Execute(sql).ok());  // plans and caches
  const PlanNode* cached = db.last_plan().get();

  TraceCollector& trace = TraceCollector::Global();
  trace.Clear();
  trace.SetEnabled(true);
  auto hit = db.Execute(sql);
  trace.SetEnabled(false);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  ASSERT_EQ(db.last_plan().get(), cached);  // served from the plan cache
  const std::vector<TraceEvent> events = trace.Snapshot();
  trace.Clear();

  std::vector<TraceEvent> probes, ops;
  for (const TraceEvent& e : events) {
    if (e.name == "plan_probe") probes.push_back(e);
    if (std::string(e.category) == "db") ops.push_back(e);
  }
  ASSERT_EQ(probes.size(), 1u);
  ASSERT_FALSE(ops.empty()) << "the cached plan's operators left no span";
  const TraceEvent& probe = probes[0];
  for (const TraceEvent& op : ops) {
    const bool inside =
        op.tid == probe.tid && op.depth > probe.depth &&
        op.start_us >= probe.start_us &&
        op.start_us + op.duration_us <= probe.start_us + probe.duration_us;
    EXPECT_FALSE(inside) << "operator span " << op.name
                         << " lies inside plan_probe";
  }
}
#endif

TEST(DbCacheTest, PlanCacheSurvivesDropAndRecreateWithNewSchema) {
  Database db;
  ForceCachesOn(&db);
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INT);"
                               "INSERT INTO t VALUES (1);"
                               "INSERT INTO t VALUES (2);")
                  .ok());
  auto r1 = db.Execute("SELECT * FROM t");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->num_columns(), 1);
  EXPECT_EQ(r1->num_rows(), 2);

  // Same name, different shape: the persistent per-name version counter
  // means the old plan can never validate against the recreated table.
  ASSERT_TRUE(db.ExecuteScript("DROP TABLE t;"
                               "CREATE TABLE t (b FLOAT, c INT);"
                               "INSERT INTO t VALUES (1.5, 7);")
                  .ok());
  auto r2 = db.Execute("SELECT * FROM t");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->num_columns(), 2);
  EXPECT_EQ(r2->num_rows(), 1);
}

TEST(DbCacheTest, StalePlanLookupCountsAsMiss) {
  Database db;
  ForceCachesOn(&db);
  ASSERT_TRUE(
      db.ExecuteScript("CREATE TABLE t (a INT); INSERT INTO t VALUES (1);")
          .ok());
  Counter* const hits = MetricsRegistry::Global().counter("cache.plan.hits");
  Counter* const misses =
      MetricsRegistry::Global().counter("cache.plan.misses");
  const int64_t hits0 = hits->value();
  const int64_t misses0 = misses->value();

  const std::string sql = "SELECT a FROM t";
  ASSERT_TRUE(db.Execute(sql).ok());  // miss: first plan
  ASSERT_TRUE(db.Execute(sql).ok());  // hit
  // DROP + CREATE bumps t's version: the cached entry is found but stale.
  ASSERT_TRUE(db.ExecuteScript("DROP TABLE t; CREATE TABLE t (a INT); "
                               "INSERT INTO t VALUES (2);")
                  .ok());
  auto fresh = db.Execute(sql);  // miss: the stale entry is dropped
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->column(0).GetValue(0).ToString(), "2");
  ASSERT_TRUE(db.Execute(sql).ok());  // hit on the replanned entry
  EXPECT_EQ(hits->value() - hits0, 2);
  EXPECT_EQ(misses->value() - misses0, 2);

  // The counter and the query log tell the same story.
  auto logged = db.Execute(
      "SELECT count(*) AS n FROM system.queries WHERE plan_cache_hit");
  ASSERT_TRUE(logged.ok()) << logged.status().ToString();
  EXPECT_EQ(logged->column(0).GetValue(0).int_value(),
            hits->value() - hits0);
}

TEST(DbCacheTest, PlansOverTemporaryTablesAreNotCached) {
  Database db;
  ForceCachesOn(&db);
  FillFact(&db);
  ASSERT_TRUE(db.Execute("CREATE TEMP TABLE scratch AS SELECT id, val FROM "
                         "fact WHERE val < 50")
                  .ok());
  Counter* const hits = MetricsRegistry::Global().counter("cache.plan.hits");
  Counter* const inserts =
      MetricsRegistry::Global().counter("cache.plan.insertions");
  const int64_t entries0 = db.plan_cache()->entries();
  const int64_t hits0 = hits->value();
  const int64_t inserts0 = inserts->value();

  // A temporary relation is re-registered on every run, so its plan would
  // be stale at the next lookup: it is planned every time, never inserted.
  const std::string temp_sql = "SELECT id FROM scratch WHERE val < 10";
  for (int i = 0; i < 2; ++i) {
    auto r = db.Execute(temp_sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->num_rows(), kRows / 50);
  }
  EXPECT_EQ(inserts->value(), inserts0);
  EXPECT_EQ(hits->value(), hits0);
  EXPECT_EQ(db.plan_cache()->entries(), entries0);

  // A SELECT over a base table is still inserted once and then hits.
  const std::string base_sql = "SELECT id FROM fact WHERE val < 10";
  ASSERT_TRUE(db.Execute(base_sql).ok());
  ASSERT_TRUE(db.Execute(base_sql).ok());
  EXPECT_EQ(inserts->value() - inserts0, 1);
  EXPECT_EQ(hits->value() - hits0, 1);
  EXPECT_EQ(db.plan_cache()->entries(), entries0 + 1);
}

TEST(DbCacheTest, ExplainAnalyzeShowsCacheHitCounters) {
  std::atomic<int64_t> evals{0};
  Database db;
  ForceCachesOn(&db);
  FillFact(&db);
  RegisterFingerprintedNudf(&db, 0x5555, 2.0, &evals);
  ASSERT_TRUE(db.Execute("SELECT nudf_model(val) AS p FROM fact").ok());

  auto ea = db.ExplainAnalyze("SELECT nudf_model(val) AS p FROM fact");
  ASSERT_TRUE(ea.ok()) << ea.status().ToString();
  // The warm run's probes all hit; the footer reports the per-query delta.
  EXPECT_NE(ea->find("cache.nudf.hits="), std::string::npos) << *ea;
}

TEST(DbCacheTest, CachedBatchedNudfIsSafeUnderMorselParallelism) {
  std::atomic<int64_t> evals{0};
  Database db;
  ForceCachesOn(&db);
  FillFact(&db);
  auto device = MakeCpuDevice(8);
  db.set_exec_options({device.get(), /*morsel_size=*/128});
  RegisterFingerprintedNudf(&db, 0x6666, 2.0, &evals);

  // Partially warm the cache, then run the full table: morsels race mixed
  // hit/miss probes and insertions against each other on the pool. TSAN
  // (ci.sh pass 3 reruns this binary) turns any cache race into a failure.
  ASSERT_TRUE(
      db.Execute("SELECT nudf_model(val) AS p FROM fact WHERE val < 250")
          .ok());
  std::string first;
  for (int rep = 0; rep < 3; ++rep) {
    auto r = db.Execute("SELECT id, nudf_model(val) AS p FROM fact");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->num_rows(), kRows);
    if (rep == 0) {
      first = Dump(*r);
    } else {
      EXPECT_EQ(Dump(*r), first) << "rep " << rep;
    }
  }
  // 500 distinct inputs, each duplicated 4x: concurrent morsels may both
  // miss a duplicate before either inserts it, but once the cache is warm
  // (after the first full pass) no row reaches the model again. Uncached,
  // this workload would cost 1000 + 3*2000 = 7000 evals.
  EXPECT_LE(evals.load(), 3000);
}

}  // namespace
}  // namespace dl2sql::db
