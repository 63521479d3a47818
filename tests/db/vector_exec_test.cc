/// \file vector_exec_test.cc
/// \brief Vectorized-vs-row bit-identity: every query in the relational mix
/// (filters with arithmetic and boolean algebra, string predicates, hash
/// joins including cross-type keys, hash aggregation over int/float/string
/// grouping keys) must render byte-identically with DL2SQL_VECTOR on and
/// off, including the paper's fig8-style Type1-4 queries end to end through
/// an engine. Also covers the observability surface (ExplainAnalyze
/// `batches=`/`sel_density=`, system.queries vector_batches) and the
/// DL2SQL_VECTOR environment gate.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "accel/device.h"
#include "common/logging.h"
#include "db/database.h"
#include "workload/testbed.h"

namespace dl2sql::db {
namespace {

constexpr int64_t kRows = 20000;
constexpr int64_t kDimRows = 64;
constexpr int64_t kSmallMorsel = 512;  // force many batches per query

std::shared_ptr<Device> MakeCpuDevice(int threads) {
  DeviceProfile profile = Device::ServerCpuProfile();
  profile.name = "vec-test-cpu-" + std::to_string(threads);
  profile.num_threads = threads;
  return std::make_shared<Device>(profile);
}

void FillTables(Database* db) {
  TableSchema fact_schema({{"id", DataType::kInt64},
                           {"grp", DataType::kInt64},
                           {"grp2", DataType::kInt64},
                           {"val", DataType::kInt64},
                           {"fval", DataType::kFloat64},
                           {"flag", DataType::kBool},
                           {"name", DataType::kString},
                           {"nv", DataType::kInt64}});
  Table fact{fact_schema};
  for (int64_t i = 0; i < kRows; ++i) {
    const int64_t grp = (i * 7919) % kDimRows;
    const int64_t val = (i * 104729 + 13) % 1000;
    // nv carries NULLs so predicates over it exercise the row-path fallback.
    const Value nv = i % 5 == 0 ? Value::Null() : Value::Int(val % 17);
    DL2SQL_CHECK(fact.AppendRow({Value::Int(i), Value::Int(grp),
                                 Value::Int(grp % 7),
                                 Value::Int(val),
                                 Value::Float(val * 0.25 - 100.0),
                                 Value::Bool(i % 3 == 0),
                                 Value::String("n" + std::to_string(grp)), nv})
                     .ok());
  }
  DL2SQL_CHECK(db->RegisterTable("fact", std::move(fact)).ok());

  TableSchema dim_schema(
      {{"id", DataType::kInt64}, {"label", DataType::kString}});
  Table dim{dim_schema};
  for (int64_t i = 0; i < kDimRows; ++i) {
    DL2SQL_CHECK(
        dim.AppendRow({Value::Int(i), Value::String("g" + std::to_string(i))})
            .ok());
  }
  DL2SQL_CHECK(db->RegisterTable("dim", std::move(dim)).ok());

  // A float-keyed dimension whose keys are integral floats: the canonical
  // key encoding must let them join int64 keys.
  TableSchema fdim_schema(
      {{"fid", DataType::kFloat64}, {"w", DataType::kInt64}});
  Table fdim{fdim_schema};
  for (int64_t i = 0; i < kDimRows; ++i) {
    DL2SQL_CHECK(fdim.AppendRow({Value::Float(static_cast<double>(i)),
                                 Value::Int(i * i)})
                     .ok());
  }
  DL2SQL_CHECK(db->RegisterTable("fdim", std::move(fdim)).ok());

  TableSchema empty_schema({{"x", DataType::kInt64}});
  DL2SQL_CHECK(db->RegisterTable("etab", Table{empty_schema}).ok());
}

// The relational mix: every vectorized code path plus every documented
// fallback, with no ORDER BY so output order itself is under test.
const char* const kQueries[] = {
    // Arithmetic + AND/OR/NOT numeric filters (fully vectorized).
    "SELECT id, val FROM fact WHERE val % 7 = 3 AND (val * 3 + id) % 11 < 4",
    "SELECT id FROM fact WHERE val < 100 OR val >= 900",
    "SELECT id FROM fact WHERE NOT (val % 2 = 0) AND id > 50",
    // Float and cross-type comparisons; division semantics.
    "SELECT id, fval FROM fact WHERE fval > 120.5 AND fval / 2.0 < 70.0",
    "SELECT id FROM fact WHERE fval = 25 AND id % 3 = 0",
    // Boolean column and string predicates.
    "SELECT id FROM fact WHERE flag AND val > 500",
    "SELECT id, grp FROM fact WHERE name = 'n13'",
    "SELECT id FROM fact WHERE name > 'n50' AND name < 'n55'",
    // NULL-bearing column: whole predicate falls back to the row path.
    "SELECT id FROM fact WHERE nv = 3",
    "SELECT id FROM fact WHERE nv = 3 AND val > 100",
    // Selection shrinking to zero.
    "SELECT id FROM fact WHERE val < -1 AND val % 7 = 3",
    // Hash joins: int keys, and int64 joining integral float64 keys.
    "SELECT F.id, D.label FROM fact F INNER JOIN dim D ON F.grp = D.id "
    "WHERE F.val % 3 = 1",
    "SELECT F.id, X.w FROM fact F INNER JOIN fdim X ON F.grp = X.fid "
    "WHERE F.val % 5 = 2",
    // Hash aggregation: single int key, two int keys, string (hashed) key,
    // global aggregate, and every aggregate function incl. float inputs.
    "SELECT grp, count(*) AS c, sum(val) AS s, min(val) AS mn, max(val) AS mx "
    "FROM fact GROUP BY grp",
    "SELECT grp, grp2, count(*) AS c, sum(val) AS s FROM fact "
    "GROUP BY grp, grp2",
    "SELECT name, count(*) AS c, avg(val) AS a FROM fact GROUP BY name",
    "SELECT count(*) AS c, sum(val) AS s, avg(val) AS a, min(fval) AS mn, "
    "max(fval) AS mx, stddev_samp(val) AS sd FROM fact",
    "SELECT grp, sum(fval) AS fs, stddev_samp(fval) AS fsd FROM fact "
    "WHERE val % 2 = 0 GROUP BY grp",
    // Aggregates the kernels do not take (NULL-bearing or non-numeric
    // arguments) keep the generic state; empty input emits the single
    // global-aggregate row.
    "SELECT grp, sum(nv) AS s, count(nv) AS c FROM fact GROUP BY grp",
    "SELECT count(*) AS c, sum(x) AS s FROM etab",
    "SELECT grp, min(name) AS mn, max(name) AS mx, min(nv) AS lo, "
    "max(nv) AS hi FROM fact GROUP BY grp",
    "SELECT grp2, avg(nv) AS a, stddev_samp(nv) AS sd FROM fact GROUP BY grp2",
    // One operator mixing both kinds: the first two typed, the last two
    // generic.
    "SELECT grp, count(flag) AS cf, sum(val) AS s, min(name) AS mn, "
    "avg(nv) AS a FROM fact GROUP BY grp",
};

/// Renders every result row; byte-compared across configurations.
std::vector<std::string> RunWorkload(Database* db) {
  std::vector<std::string> renders;
  for (const char* sql : kQueries) {
    auto r = db->Execute(sql);
    DL2SQL_CHECK(r.ok()) << sql << ": " << r.status().ToString();
    renders.push_back(r->ToString(r->num_rows()));
  }
  return renders;
}

TEST(VectorExecTest, SerialRendersAreByteIdenticalOffVsOn) {
  Database off;
  off.set_vectorized(false);
  FillTables(&off);
  ASSERT_FALSE(off.vectorized());
  const std::vector<std::string> row_renders = RunWorkload(&off);

  Database on;
  on.set_vectorized(true);
  FillTables(&on);
  const std::vector<std::string> vec_renders = RunWorkload(&on);

  ASSERT_EQ(row_renders.size(), vec_renders.size());
  for (size_t q = 0; q < row_renders.size(); ++q) {
    EXPECT_EQ(row_renders[q], vec_renders[q]) << kQueries[q];
  }
  // Sanity: the mix is non-trivial.
  for (size_t q = 0; q < row_renders.size(); ++q) {
    EXPECT_FALSE(row_renders[q].empty());
  }
}

TEST(VectorExecTest, SmallMorselsWithPooledDeviceStayByteIdentical) {
  // A 1-thread pool with tiny morsels drives every batch boundary and the
  // pool-inline execution path; results must not change.
  auto device = MakeCpuDevice(1);

  Database off;
  off.set_vectorized(false);
  FillTables(&off);
  off.set_exec_options({device.get(), kSmallMorsel});
  const std::vector<std::string> row_renders = RunWorkload(&off);

  Database on;
  on.set_vectorized(true);  // explicit: survives a DL2SQL_VECTOR=OFF CI leg
  FillTables(&on);
  on.set_exec_options({device.get(), kSmallMorsel});
  const std::vector<std::string> vec_renders = RunWorkload(&on);

  ASSERT_EQ(row_renders.size(), vec_renders.size());
  for (size_t q = 0; q < row_renders.size(); ++q) {
    EXPECT_EQ(row_renders[q], vec_renders[q]) << kQueries[q];
  }
}

TEST(VectorExecTest, ParallelExactQueriesMatchRowPathAtEightThreads) {
  // Filters and joins run morsel-parallel and aggregation folds serially,
  // so every query of the mix matches the row path at eight threads.
  auto device = MakeCpuDevice(8);

  Database off;
  off.set_vectorized(false);
  FillTables(&off);
  off.set_exec_options({device.get(), kSmallMorsel});

  Database on;
  on.set_vectorized(true);
  FillTables(&on);
  on.set_exec_options({device.get(), kSmallMorsel});

  for (const char* sql : kQueries) {
    auto a = off.Execute(sql);
    auto b = on.Execute(sql);
    ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
    EXPECT_EQ(a->ToString(a->num_rows()), b->ToString(b->num_rows())) << sql;
  }
}

/// The paper's fig8-style Type1-4 queries end to end through the DL2SQL
/// engine (1-thread edge CPU => fully deterministic): toggling the
/// DL2SQL_VECTOR environment gate must not change a byte of any result.
TEST(VectorExecTest, Fig8MixQueriesAreByteIdenticalAcrossEngineRebuilds) {
  workload::TestbedOptions options;
  options.dataset.video_rows = 200;
  options.dataset.keyframe_size = 8;
  options.dataset.seed = 42;
  options.model_base_channels = 2;
  options.histogram_samples = 16;

  workload::QueryParams p;
  p.selectivity = 0.05;
  const std::vector<std::string> sqls = {
      workload::MakeType1Query(p), workload::MakeType2Query(p),
      workload::MakeType3Query(p), workload::MakeType4Query(p)};

  auto run_mix = [&](const char* gate) -> std::vector<std::string> {
    if (gate != nullptr) {
      ::setenv("DL2SQL_VECTOR", gate, 1);
    } else {
      ::unsetenv("DL2SQL_VECTOR");
    }
    auto tb = workload::Testbed::Create(options);
    ::unsetenv("DL2SQL_VECTOR");
    DL2SQL_CHECK(tb.ok()) << tb.status().ToString();
    std::vector<std::string> renders;
    for (const std::string& sql : sqls) {
      engines::QueryCost cost;
      auto r = (*tb)->dl2sql()->ExecuteCollaborative(sql, &cost);
      DL2SQL_CHECK(r.ok()) << sql << ": " << r.status().ToString();
      renders.push_back(r->ToString(r->num_rows()));
    }
    return renders;
  };

  const std::vector<std::string> vec_on = run_mix(nullptr);
  const std::vector<std::string> vec_off = run_mix("OFF");
  ASSERT_EQ(vec_on.size(), vec_off.size());
  for (size_t q = 0; q < vec_on.size(); ++q) {
    EXPECT_EQ(vec_on[q], vec_off[q]) << sqls[q];
  }
}

TEST(VectorExecTest, ExplainAnalyzeReportsBatchesAndSelDensity) {
  Database db;
  db.set_vectorized(true);
  FillTables(&db);
  auto text = db.ExplainAnalyze(
      "SELECT grp, count(*) AS c FROM fact WHERE val % 7 = 3 GROUP BY grp");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("batches="), std::string::npos) << *text;
  EXPECT_NE(text->find("sel_density="), std::string::npos) << *text;

  Database off;
  off.set_vectorized(false);
  FillTables(&off);
  auto row_text = off.ExplainAnalyze(
      "SELECT grp, count(*) AS c FROM fact WHERE val % 7 = 3 GROUP BY grp");
  ASSERT_TRUE(row_text.ok()) << row_text.status().ToString();
  EXPECT_EQ(row_text->find("batches="), std::string::npos) << *row_text;
}

TEST(VectorExecTest, SystemQueriesRecordsVectorBatches) {
  Database db;
  db.set_vectorized(true);
  FillTables(&db);
  ASSERT_TRUE(
      db.Execute("SELECT id FROM fact WHERE val % 7 = 3 AND id > 10").ok());
  auto log = db.Execute(
      "SELECT sql, vector_batches FROM system.queries "
      "WHERE vector_batches > 0");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_GT(log->num_rows(), 0)
      << "vectorized statement missing from system.queries";

  Database off;
  off.set_vectorized(false);
  FillTables(&off);
  ASSERT_TRUE(
      off.Execute("SELECT id FROM fact WHERE val % 7 = 3 AND id > 10").ok());
  auto none = off.Execute(
      "SELECT sql FROM system.queries WHERE vector_batches > 0");
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none->num_rows(), 0);
}

TEST(VectorExecTest, EnvironmentGateDisablesVectorizedExecution) {
  ::setenv("DL2SQL_VECTOR", "OFF", 1);
  Database off;
  EXPECT_FALSE(off.vectorized());
  ::setenv("DL2SQL_VECTOR", "0", 1);
  Database zero;
  EXPECT_FALSE(zero.vectorized());
  ::unsetenv("DL2SQL_VECTOR");
  Database on;
  EXPECT_TRUE(on.vectorized());
}

}  // namespace
}  // namespace dl2sql::db
