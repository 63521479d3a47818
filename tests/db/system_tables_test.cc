/// \file system_tables_test.cc
/// \brief The system.* introspection tables: live data through the normal SQL
/// path, read-only enforcement, query-log ring semantics, plan-cache
/// freshness, the slow-query log, and the env kill switches.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "db/database.h"
#include "db/query_log.h"

namespace dl2sql::db {
namespace {

constexpr int64_t kRows = 64;

void FillTables(Database* db) {
  TableSchema schema({{"id", DataType::kInt64}, {"val", DataType::kInt64}});
  Table t{schema};
  for (int64_t i = 0; i < kRows; ++i) {
    DL2SQL_CHECK(t.AppendRow({Value::Int(i), Value::Int(i % 97)}).ok());
  }
  DL2SQL_CHECK(db->RegisterTable("readings", std::move(t)).ok());

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

/// Row index whose string column `col` equals `needle`, or -1.
int64_t FindRow(const Table& t, int col, const std::string& needle) {
  for (int64_t i = 0; i < t.num_rows(); ++i) {
    if (t.column(col).GetValue(i).string_value() == needle) return i;
  }
  return -1;
}

TEST(QueryLogTest, RingWrapsKeepingNewestRecords) {
  QueryLog log(4);
  EXPECT_EQ(log.capacity(), 4u);
  for (int i = 0; i < 10; ++i) {
    QueryLogRecord r;
    r.sql = "q" + std::to_string(i);
    r.kind = QueryKind::kSelect;
    r.duration_us = 10 * i;
    log.Record(r);
  }
  const std::vector<QueryLogRecord> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Ids are assigned from the writer sequence; the ring keeps the newest
  // capacity records, sorted oldest-first.
  EXPECT_EQ(snap.front().id, 6);
  EXPECT_EQ(snap.back().id, 9);
  EXPECT_EQ(snap.back().sql, "q9");
  EXPECT_EQ(snap.back().duration_us, 90);
  EXPECT_EQ(log.total_recorded(), 10u);
}

TEST(QueryLogTest, OverlongSqlIsTruncatedWithEllipsis) {
  QueryLog log(2);
  QueryLogRecord r;
  r.sql = std::string(QueryLog::kMaxSqlBytes + 100, 'x');
  r.kind = QueryKind::kSelect;
  log.Record(r);
  const std::vector<QueryLogRecord> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].sql.size(), QueryLog::kMaxSqlBytes);
  EXPECT_EQ(snap[0].sql.substr(QueryLog::kMaxSqlBytes - 3), "...");
}

TEST(SystemTablesTest, MetricsTableReturnsLiveValuesThroughSql) {
  Database db;
  MetricsRegistry::Global().counter("test.sys.live")->Increment(42);
  auto result = db.Execute("SELECT name, value FROM system.metrics");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->num_rows(), 0);
  const int64_t row = FindRow(*result, 0, "test.sys.live");
  ASSERT_GE(row, 0) << "counter missing from system.metrics";
  EXPECT_EQ(result->column(1).GetValue(row).float_value(), 42.0);

  // The scan is live, not a snapshot taken at registration time.
  MetricsRegistry::Global().counter("test.sys.live")->Increment(8);
  result = db.Execute(
      "SELECT value FROM system.metrics WHERE name = 'test.sys.live'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 1);
  EXPECT_EQ(result->column(0).GetValue(0).float_value(), 50.0);
}

TEST(SystemTablesTest, QueriesTableRecordsFinishedStatements) {
  Database db;
  FillTables(&db);
  const std::string nudf_sql =
      "SELECT id, nudf_affine(val) AS p FROM readings";
  ASSERT_TRUE(db.Execute(nudf_sql).ok());
  ASSERT_FALSE(db.Execute("SELECT nope FROM readings").ok());

  // The acceptance query: top-5 slowest statements via the normal SQL path.
  auto top = db.Execute(
      "SELECT sql, duration_ms, neural_calls FROM system.queries "
      "ORDER BY duration_ms DESC LIMIT 5");
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  ASSERT_GT(top->num_rows(), 0);
  ASSERT_LE(top->num_rows(), 5);

  auto all = db.Execute(
      "SELECT sql, kind, error, rows, neural_calls, operator_rows, "
      "peak_operator_bytes FROM system.queries");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  const int64_t nudf_row = FindRow(*all, 0, nudf_sql);
  ASSERT_GE(nudf_row, 0) << "nUDF statement missing from system.queries";
  EXPECT_EQ(all->column(1).GetValue(nudf_row).string_value(), "select");
  EXPECT_EQ(all->column(2).GetValue(nudf_row).string_value(), "");
  EXPECT_EQ(all->column(3).GetValue(nudf_row).int_value(), kRows);
  // Every reading went through the nUDF exactly once.
  EXPECT_EQ(all->column(4).GetValue(nudf_row).int_value(), kRows);
  // Per-operator accounting: the scan+project pipeline produced rows and
  // held materialized output.
  EXPECT_GT(all->column(5).GetValue(nudf_row).int_value(), 0);
  EXPECT_GT(all->column(6).GetValue(nudf_row).int_value(), 0);

  // Failed statements are recorded too, with their error status.
  const int64_t err_row = FindRow(*all, 0, "SELECT nope FROM readings");
  ASSERT_GE(err_row, 0);
  EXPECT_NE(all->column(2).GetValue(err_row).string_value(), "");
}

TEST(SystemTablesTest, AliasedAndQualifiedScansBind) {
  Database db;
  ASSERT_TRUE(db.Execute("SELECT count(*) FROM system.metrics").ok());
  auto aliased = db.Execute("SELECT q.sql FROM system.queries q LIMIT 1");
  ASSERT_TRUE(aliased.ok()) << aliased.status().ToString();
  auto spans = db.Execute("SELECT name, count FROM system.spans");
  ASSERT_TRUE(spans.ok()) << spans.status().ToString();
  auto caches = db.Execute("SELECT name, hits, misses FROM system.caches");
  ASSERT_TRUE(caches.ok()) << caches.status().ToString();
}

TEST(SystemTablesTest, TablesTableListsBaseAndVirtualRelations) {
  Database db;
  FillTables(&db);
  auto result = db.Execute("SELECT name, kind, rows FROM system.tables");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const int64_t base = FindRow(*result, 0, "readings");
  ASSERT_GE(base, 0);
  EXPECT_EQ(result->column(1).GetValue(base).string_value(), "table");
  EXPECT_EQ(result->column(2).GetValue(base).int_value(), kRows);
  const int64_t virt = FindRow(*result, 0, "system.queries");
  ASSERT_GE(virt, 0);
  EXPECT_EQ(result->column(1).GetValue(virt).string_value(), "virtual");
}

TEST(SystemTablesTest, SystemTablesAreReadOnly) {
  Database db;
  FillTables(&db);
  EXPECT_FALSE(db.Execute("INSERT INTO system.metrics VALUES ('x','y',1.0)")
                   .ok());
  EXPECT_FALSE(db.Execute("UPDATE system.queries SET rows = 0").ok());
  EXPECT_FALSE(db.Execute("DELETE FROM system.queries").ok());
  EXPECT_FALSE(db.Execute("DROP TABLE system.metrics").ok());
  // The whole schema name is reserved, registered table or not.
  EXPECT_FALSE(
      db.Execute("CREATE TABLE system.mine (id INT64)").ok());
}

TEST(SystemTablesTest, PlanCacheServesFreshSnapshots) {
  Database db;
  const std::string count_sql = "SELECT count(*) FROM system.queries";
  auto first = db.Execute(count_sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const int64_t count1 = first->column(0).GetValue(0).int_value();
  // The identical statement replans or hits the prepared-plan cache; either
  // way it must see the first scan's own record (scan-time materialization,
  // never a cached snapshot).
  auto second = db.Execute(count_sql);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const int64_t count2 = second->column(0).GetValue(0).int_value();
  EXPECT_EQ(count2, count1 + 1);
}

TEST(SystemTablesTest, SlowQueryThresholdEmitsWarnWithPlan) {
  Database db;
  FillTables(&db);
  db.set_slow_query_ms(0.0001);  // everything is slow now
  EXPECT_EQ(db.slow_query_ms(), 0.0001);
  ::testing::internal::CaptureStderr();
  ASSERT_TRUE(db.Execute("SELECT count(*) FROM readings").ok());
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("slow query"), std::string::npos) << err;
  EXPECT_NE(err.find("plan:"), std::string::npos) << err;
  EXPECT_NE(err.find("SELECT count(*) FROM readings"), std::string::npos)
      << err;

  // A statement run inside a nUDF body is recorded (and WARNed) on its own;
  // the outer statement's WARN still prints the outer plan.
  TableSchema schema({{"id", DataType::kInt64}, {"val", DataType::kInt64}});
  Table outer{schema};
  Table inner{schema};
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(outer.AppendRow({Value::Int(i), Value::Int(i)}).ok());
    ASSERT_TRUE(inner.AppendRow({Value::Int(i), Value::Int(-i)}).ok());
  }
  ASSERT_TRUE(db.RegisterTable("outer_readings", std::move(outer)).ok());
  ASSERT_TRUE(db.RegisterTable("inner_side", std::move(inner)).ok());
  db.udfs().RegisterNeural(
      "nudf_nested", DataType::kFloat64,
      [&db](const std::vector<Value>& args) -> Result<Value> {
        DL2SQL_ASSIGN_OR_RETURN(Table t,
                                db.Execute("SELECT count(*) FROM inner_side"));
        DL2SQL_ASSIGN_OR_RETURN(double x, args[0].AsDouble());
        return Value::Float(
            x + static_cast<double>(t.column(0).GetValue(0).int_value()));
      },
      NUdfInfo{});
  const std::string outer_sql =
      "SELECT sum(nudf_nested(val)) AS s FROM outer_readings WHERE id < 4";
  ::testing::internal::CaptureStderr();
  ASSERT_TRUE(db.Execute(outer_sql).ok());
  const std::string nested_err = ::testing::internal::GetCapturedStderr();
  // The outer WARN comes last: its body's statements finished first.
  const size_t outer_at = nested_err.rfind(outer_sql);
  ASSERT_NE(outer_at, std::string::npos) << nested_err;
  const size_t plan_at = nested_err.find("plan:", outer_at);
  ASSERT_NE(plan_at, std::string::npos) << nested_err;
  const std::string outer_plan = nested_err.substr(plan_at);
  EXPECT_NE(outer_plan.find("outer_readings"), std::string::npos)
      << outer_plan;
  EXPECT_EQ(outer_plan.find("inner_side"), std::string::npos) << outer_plan;

  // Raising the threshold silences the log (recording continues).
  db.set_slow_query_ms(1e9);
  ::testing::internal::CaptureStderr();
  ASSERT_TRUE(db.Execute("SELECT count(*) FROM readings").ok());
  EXPECT_EQ(::testing::internal::GetCapturedStderr().find("slow query"),
            std::string::npos);
}

TEST(SystemTablesTest, ExplainAnalyzeReportsOperatorTotals) {
  Database db;
  FillTables(&db);
  auto text = db.ExplainAnalyze("SELECT id, nudf_affine(val) FROM readings");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("bytes="), std::string::npos) << *text;
  EXPECT_NE(text->find("Operators: rows="), std::string::npos) << *text;
  EXPECT_NE(text->find("Counters:"), std::string::npos) << *text;
}

TEST(SystemTablesTest, EnvKnobControlsQueryLogCapacity) {
  ::setenv("DL2SQL_QUERY_LOG_CAPACITY", "4", 1);
  {
    Database db;
    ASSERT_NE(db.query_log(), nullptr);
    EXPECT_EQ(db.query_log()->capacity(), 4u);
  }
  ::unsetenv("DL2SQL_QUERY_LOG_CAPACITY");
}

}  // namespace
}  // namespace dl2sql::db
