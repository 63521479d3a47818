/// \file explain_counters_test.cc
/// \brief ExplainAnalyze observability: golden plan structure, parallel runs
/// matching serial row counts, sane per-node timings, the per-worker
/// parallelism breakdown, the registry-counter footer, and EXPLAIN ANALYZE
/// running beside other statements on the same Database.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "accel/device.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "db/database.h"

namespace dl2sql::db {
namespace {

constexpr int64_t kRows = 20000;
constexpr int64_t kDimRows = 64;
constexpr int64_t kSmallMorsel = 512;  // force many morsels on kRows

std::shared_ptr<Device> MakeCpuDevice(int threads) {
  DeviceProfile profile = Device::ServerCpuProfile();
  profile.name = "explain-cpu-" + std::to_string(threads);
  profile.num_threads = threads;
  return std::make_shared<Device>(profile);
}

void FillTables(Database* db) {
  TableSchema fact_schema({{"id", DataType::kInt64},
                           {"grp", DataType::kInt64},
                           {"val", DataType::kInt64}});
  Table fact{fact_schema};
  for (int64_t i = 0; i < kRows; ++i) {
    DL2SQL_CHECK(fact.AppendRow({Value::Int(i),
                                 Value::Int((i * 7919) % kDimRows),
                                 Value::Int((i * 104729 + 13) % 1000)})
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

const char* const kJoinAggSql =
    "SELECT D.label, count(*) AS c FROM fact F INNER JOIN dim D "
    "ON F.grp = D.id WHERE F.val % 3 = 1 GROUP BY D.label";

/// Every "actual rows=N" value in plan-render order.
std::vector<int64_t> ActualRows(const std::string& text) {
  std::vector<int64_t> rows;
  const std::string key = "actual rows=";
  for (size_t pos = text.find(key); pos != std::string::npos;
       pos = text.find(key, pos + 1)) {
    rows.push_back(std::stoll(text.substr(pos + key.size())));
  }
  return rows;
}

/// Every "prefixX.XXXXs" float following `prefix` in plan-render order.
std::vector<double> TimingValues(const std::string& text,
                                 const std::string& prefix) {
  std::vector<double> values;
  for (size_t pos = text.find(prefix); pos != std::string::npos;
       pos = text.find(prefix, pos + 1)) {
    values.push_back(std::stod(text.substr(pos + prefix.size())));
  }
  return values;
}

TEST(ExplainCountersTest, ExplainRendersGoldenStructure) {
  Database db;
  FillTables(&db);
  auto text = db.Explain(kJoinAggSql);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // Plain EXPLAIN shows structure only — no actuals, no counters.
  EXPECT_NE(text->find("Aggregate"), std::string::npos) << *text;
  EXPECT_NE(text->find("Join"), std::string::npos) << *text;
  EXPECT_NE(text->find("Scan fact"), std::string::npos) << *text;
  EXPECT_NE(text->find("Scan dim"), std::string::npos) << *text;
  EXPECT_EQ(text->find("actual rows="), std::string::npos) << *text;
  EXPECT_EQ(text->find("Counters:"), std::string::npos) << *text;
}

TEST(ExplainCountersTest, ParallelAnalyzeMatchesSerialRowCounts) {
  Database db;
  FillTables(&db);

  auto serial = db.ExplainAnalyze(kJoinAggSql);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  auto device = MakeCpuDevice(4);
  db.set_exec_options({device.get(), kSmallMorsel});
  auto parallel = db.ExplainAnalyze(kJoinAggSql);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  // Identical plan → identical per-node actual row counts regardless of the
  // thread count (morsel-order result assembly is deterministic).
  const std::vector<int64_t> serial_rows = ActualRows(*serial);
  const std::vector<int64_t> parallel_rows = ActualRows(*parallel);
  ASSERT_FALSE(serial_rows.empty());
  EXPECT_EQ(serial_rows, parallel_rows) << *serial << "\n--\n" << *parallel;

  // Timings are per-node: as many totals as actuals, all non-negative, and
  // every node's total covers its self time.
  for (const std::string& text : {*serial, *parallel}) {
    const std::vector<double> totals = TimingValues(text, "total=");
    const std::vector<double> selfs = TimingValues(text, "self=");
    ASSERT_EQ(totals.size(), serial_rows.size()) << text;
    ASSERT_EQ(selfs.size(), totals.size()) << text;
    for (size_t i = 0; i < totals.size(); ++i) {
      EXPECT_GE(totals[i], 0.0) << text;
      EXPECT_GE(selfs[i], 0.0) << text;
      // Allow rounding slack: both fields print at 0.1ms resolution.
      EXPECT_GE(totals[i] + 5e-4, selfs[i]) << text;
    }
    // The root's total bounds every node's total.
    for (double t : totals) EXPECT_GE(totals[0] + 5e-4, t) << text;
  }
}

TEST(ExplainCountersTest, AnalyzeReportsPerWorkerBreakdown) {
  Database db;
  FillTables(&db);
  auto device = MakeCpuDevice(4);
  db.set_exec_options({device.get(), kSmallMorsel});
  // The batched nUDF keeps pool workers busy long enough to register
  // non-zero per-worker microsecond totals.
  auto text = db.ExplainAnalyze("SELECT id, nudf_affine(val) AS p FROM fact");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("[workers:"), std::string::npos) << *text;
  EXPECT_NE(text->find("w0="), std::string::npos) << *text;
}

TEST(ExplainCountersTest, AnalyzeFooterReportsCounterDeltas) {
  Database db;
  FillTables(&db);
  auto device = MakeCpuDevice(4);
  db.set_exec_options({device.get(), kSmallMorsel});

  auto text = db.ExplainAnalyze("SELECT id, nudf_affine(val) AS p FROM fact");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("Counters:"), std::string::npos) << *text;
  // Every fact row went through the nUDF exactly once, and the scan+project
  // pipeline ran morsels on the pool.
  EXPECT_NE(text->find("nudf.invocations=" + std::to_string(kRows)),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("pool.morsels="), std::string::npos) << *text;

  // The footer shows per-query deltas, not absolute totals: a second
  // identical run reports the same invocation delta.
  auto again = db.ExplainAnalyze("SELECT id, nudf_affine(val) AS p FROM fact");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_NE(again->find("nudf.invocations=" + std::to_string(kRows)),
            std::string::npos)
      << *again;
}

TEST(ExplainCountersTest, ExplainAnalyzeRunsBesideOtherStatements) {
  // Two EXPLAIN ANALYZE loops and a plain SELECT loop on one Database: each
  // analyzed statement collects into its own node map, so every call
  // succeeds and each footer counts exactly its own rendered nodes.
  Database db;
  FillTables(&db);
  auto device = MakeCpuDevice(2);
  db.set_exec_options({device.get(), kSmallMorsel});
  constexpr int kIterations = 200;
  std::atomic<int> failures{0};
  std::mutex mu;
  std::vector<std::string> mismatched;
  auto analyze = [&](const std::string& sql) {
    for (int i = 0; i < kIterations; ++i) {
      auto text = db.ExplainAnalyze(sql);
      if (!text.ok()) {
        failures.fetch_add(1);
        continue;
      }
      int64_t rendered = 0;
      for (int64_t rows : ActualRows(*text)) rendered += rows;
      const std::string key = "Operators: rows=";
      const size_t pos = text->find(key);
      if (pos == std::string::npos ||
          std::stoll(text->substr(pos + key.size())) != rendered) {
        std::lock_guard<std::mutex> lock(mu);
        mismatched.push_back(*text);
      }
    }
  };
  std::thread join_agg(analyze, kJoinAggSql);
  std::thread nudf(analyze,
                   "SELECT id, nudf_affine(val) AS p FROM fact WHERE val < 500");
  std::thread plain([&] {
    for (int i = 0; i < kIterations; ++i) {
      if (!db.Execute("SELECT grp, count(*) AS c FROM fact GROUP BY grp").ok()) {
        failures.fetch_add(1);
      }
    }
  });
  join_agg.join();
  nudf.join();
  plain.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(mismatched.empty()) << mismatched.size() << " mismatched, e.g.\n"
                                  << mismatched.front();
}

}  // namespace
}  // namespace dl2sql::db
