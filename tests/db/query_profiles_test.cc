/// \file query_profiles_test.cc
/// \brief Per-query resource accounting end to end: system.query_profiles
/// rows carry non-trivial memory peaks and sane cpu/wait breakdowns, results
/// are bit-identical with the tracker on and off, a per-query hard memory
/// limit fails with ResourceExhausted naming the offending operator, catalog
/// storage shows up in system.tables.tracked_bytes, and ExplainAnalyze grows
/// a Profile footer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/mem_tracker.h"
#include "db/database.h"

namespace dl2sql::db {
namespace {

constexpr int64_t kRows = 20000;
constexpr int64_t kDimRows = 64;

/// Forces the accounting gate on and restores the prior state on exit.
class ScopedTrackingEnabled {
 public:
  ScopedTrackingEnabled() : prior_(MemTracker::Enabled()) {
    MemTracker::SetEnabled(true);
  }
  ~ScopedTrackingEnabled() { MemTracker::SetEnabled(prior_); }
  bool active() const { return MemTracker::Enabled(); }

 private:
  const bool prior_;
};

#define REQUIRE_TRACKING(guard)                                         \
  if (!(guard).active()) {                                              \
    GTEST_SKIP() << "resource accounting compiled out";                 \
  }

void FillTables(Database* db) {
  // The payload column makes operator outputs comfortably larger than the
  // 1 MB budget the limit test sets.
  TableSchema fact_schema({{"id", DataType::kInt64},
                           {"grp", DataType::kInt64},
                           {"val", DataType::kInt64},
                           {"payload", DataType::kString}});
  Table fact{fact_schema};
  const std::string payload(64, 'p');
  for (int64_t i = 0; i < kRows; ++i) {
    DL2SQL_CHECK(fact.AppendRow({Value::Int(i),
                                 Value::Int((i * 7919) % kDimRows),
                                 Value::Int((i * 104729 + 13) % 1000),
                                 Value::String(payload)})
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

// One query of each interesting shape; all run serially (no device), so
// per-query CPU cannot legitimately exceed wall time.
const char* const kJoinSql =
    "SELECT F.id, D.w FROM fact F INNER JOIN dim D ON F.grp = D.id "
    "WHERE F.val % 3 = 1";
const char* const kAggSql =
    "SELECT grp, count(*) AS c, sum(val) AS s FROM fact GROUP BY grp";
const char* const kNudfSql =
    "SELECT id, nudf_affine(val) AS p FROM fact WHERE id < 4000";

TEST(QueryProfilesTest, ProfilesCarryMemoryPeaksAndSaneTimeBreakdown) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  Database db;
  // This test asserts in-memory tracker behavior; paged mode (spilling,
  // resident-bytes billing) legitimately reports different peaks.
  ASSERT_TRUE(db.set_storage_mode(StorageMode::kInMemory).ok());
  FillTables(&db);
  ASSERT_TRUE(db.Execute(kJoinSql).ok());
  ASSERT_TRUE(db.Execute(kAggSql).ok());
  ASSERT_TRUE(db.Execute(kNudfSql).ok());

  auto profiles = db.Execute(
      "SELECT sql, duration_ms, cpu_ms, admission_wait_ms, lock_wait_ms, "
      "pool_queue_wait_ms, mem_peak_bytes, mem_cumulative_bytes "
      "FROM system.query_profiles");
  ASSERT_TRUE(profiles.ok()) << profiles.status().ToString();

  int matched = 0;
  for (int64_t i = 0; i < profiles->num_rows(); ++i) {
    const std::string sql = profiles->column(0).GetValue(i).string_value();
    if (sql != kJoinSql && sql != kAggSql && sql != kNudfSql) continue;
    ++matched;
    const double duration_ms = profiles->column(1).GetValue(i).float_value();
    const double cpu_ms = profiles->column(2).GetValue(i).float_value();
    const double wait_ms = profiles->column(3).GetValue(i).float_value() +
                           profiles->column(4).GetValue(i).float_value() +
                           profiles->column(5).GetValue(i).float_value();
    const int64_t peak = profiles->column(6).GetValue(i).int_value();
    const int64_t cumulative = profiles->column(7).GetValue(i).int_value();
    // Join / aggregate / nUDF statements all materialize tracked state.
    EXPECT_GT(peak, 0) << sql;
    EXPECT_GE(cumulative, peak) << sql;
    // Serial execution: CPU bounded by wall (1 ms slack for the coarser
    // granularity of CLOCK_THREAD_CPUTIME_ID vs the monotonic stopwatch),
    // and an embedded database never waits on admission/locks/pool queues.
    EXPECT_LE(cpu_ms, duration_ms + 1.0) << sql;
    EXPECT_LE(wait_ms, duration_ms + 1.0) << sql;
  }
  EXPECT_EQ(matched, 3);
}

TEST(QueryProfilesTest, ResultsAreBitIdenticalTrackerOnVsOff) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  const char* const queries[] = {kJoinSql, kAggSql, kNudfSql};

  MemTracker::SetEnabled(true);
  Database on;
  FillTables(&on);
  std::vector<std::string> on_renders;
  for (const char* sql : queries) {
    auto r = on.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    on_renders.push_back(r->ToString(r->num_rows()));
  }

  MemTracker::SetEnabled(false);
  Database off;
  FillTables(&off);
  std::vector<std::string> off_renders;
  for (const char* sql : queries) {
    auto r = off.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    off_renders.push_back(r->ToString(r->num_rows()));
  }
  MemTracker::SetEnabled(true);

  for (size_t q = 0; q < on_renders.size(); ++q) {
    EXPECT_EQ(on_renders[q], off_renders[q]) << queries[q];
  }
}

TEST(QueryProfilesTest, QueryMemLimitFailsNamingTheOffendingOperator) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  Database db;
  // Paged mode spills instead of failing on the limit — pin in-memory.
  ASSERT_TRUE(db.set_storage_mode(StorageMode::kInMemory).ok());
  FillTables(&db);
  db.set_query_mem_limit(1 << 20);  // 1 MB

  // The fact scan alone materializes well over 1 MB (payload column).
  auto r = db.Execute("SELECT id, payload FROM fact WHERE val >= 0");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  const std::string msg = r.status().ToString();
  EXPECT_NE(msg.find("memory limit exceeded"), std::string::npos) << msg;
  EXPECT_NE(msg.find("op."), std::string::npos)
      << "error does not name the offending operator: " << msg;

  // Lifting the limit lets the identical statement succeed: the failed
  // attempt released everything it charged.
  db.set_query_mem_limit(0);
  auto ok = db.Execute("SELECT id, payload FROM fact WHERE val >= 0");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->num_rows(), kRows);
}

TEST(QueryProfilesTest, EnvSeedsQueryMemLimitAtConstruction) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  ::setenv("DL2SQL_QUERY_MEM_LIMIT", "1048576", 1);
  Database db;
  ::unsetenv("DL2SQL_QUERY_MEM_LIMIT");
  EXPECT_EQ(db.query_mem_limit(), 1048576);
  // Paged mode spills instead of failing on the limit — pin in-memory.
  ASSERT_TRUE(db.set_storage_mode(StorageMode::kInMemory).ok());
  FillTables(&db);
  auto r = db.Execute("SELECT id, payload FROM fact WHERE val >= 0");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
}

TEST(QueryProfilesTest, SystemTablesReportTrackedStorageBytes) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  Database db;
  FillTables(&db);  // registered with the gate on → synced at create
  auto r = db.Execute(
      "SELECT name, bytes, tracked_bytes FROM system.tables "
      "WHERE name = 'fact'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1);
  const int64_t bytes = r->column(1).GetValue(0).int_value();
  const int64_t tracked = r->column(2).GetValue(0).int_value();
  EXPECT_GT(tracked, 0);
  EXPECT_EQ(tracked, bytes);  // re-synced value is exactly ByteSize()

  // DML re-syncs through InvalidateStats.
  ASSERT_TRUE(
      db.Execute("INSERT INTO fact VALUES (99991, 1, 1, 'x')").ok());
  auto after = db.Execute(
      "SELECT tracked_bytes FROM system.tables WHERE name = 'fact'");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GT(after->column(0).GetValue(0).int_value(), tracked);
}

TEST(QueryProfilesTest, ExplainAnalyzeGrowsProfileFooterWhenEnabled) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  Database db;
  FillTables(&db);
  auto text = db.ExplainAnalyze(kAggSql);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("Profile: cpu_us="), std::string::npos) << *text;
  EXPECT_NE(text->find("op.aggregate"), std::string::npos) << *text;

  MemTracker::SetEnabled(false);
  auto off_text = db.ExplainAnalyze(kAggSql);
  MemTracker::SetEnabled(true);
  ASSERT_TRUE(off_text.ok()) << off_text.status().ToString();
  EXPECT_EQ(off_text->find("Profile:"), std::string::npos) << *off_text;
}

TEST(QueryProfilesTest, DisabledGateLeavesProfileColumnsZero) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  MemTracker::SetEnabled(false);
  Database db;
  FillTables(&db);
  ASSERT_TRUE(db.Execute(kAggSql).ok());
  auto r = db.Execute(
      "SELECT cpu_ms, mem_peak_bytes, mem_cumulative_bytes "
      "FROM system.query_profiles WHERE mem_peak_bytes > 0");
  MemTracker::SetEnabled(true);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 0);
}

}  // namespace
}  // namespace dl2sql::db
