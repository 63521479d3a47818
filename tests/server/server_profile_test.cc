/// \file server_profile_test.cc
/// \brief Serving-layer resource accounting: session trackers surface
/// through system.sessions, and lock waits are attributed.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/mem_tracker.h"
#include "server/session.h"

namespace dl2sql::server {
namespace {

using db::DataType;
using db::Database;
using db::Table;
using db::TableSchema;
using db::Value;

constexpr int64_t kRows = 3200;

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

void SetUpDatabase(Database* db) {
  TableSchema schema({{"id", DataType::kInt64}, {"val", DataType::kInt64}});
  Table t{schema};
  for (int64_t i = 0; i < kRows; ++i) {
    DL2SQL_CHECK(t.AppendRow({Value::Int(i), Value::Int((i * 31 + 7) % 513)})
                     .ok());
  }
  DL2SQL_CHECK(db->RegisterTable("t", std::move(t)).ok());
}

TEST(ServerProfileTest, SessionsSurfaceTrackedMemory) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  Database db;
  // This test asserts in-memory tracker peaks; paged mode bills resident
  // bytes (possibly zero for streamed intermediates) — pin in-memory.
  ASSERT_TRUE(db.set_storage_mode(db::StorageMode::kInMemory).ok());
  SetUpDatabase(&db);
  ServiceOptions opts;
  QueryService service(&db, opts);

  auto session = service.CreateSession();
  ASSERT_TRUE(
      session->Execute("SELECT id, val FROM t WHERE val % 3 = 0").ok());

  // The statement's query tracker was parented under the session tracker,
  // so its charges registered in the session's peak; live consumption is
  // back to zero once the result was handed off.
  EXPECT_GT(session->mem_tracker()->peak(), 0);

  auto rows = session->Execute(
      "SELECT id, tracked_bytes, tracked_peak_bytes FROM system.sessions");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  bool found = false;
  for (int64_t i = 0; i < rows->num_rows(); ++i) {
    if (rows->column(0).GetValue(i).int_value() !=
        static_cast<int64_t>(session->id())) {
      continue;
    }
    found = true;
    EXPECT_GE(rows->column(1).GetValue(i).int_value(), 0);
    EXPECT_GT(rows->column(2).GetValue(i).int_value(), 0);
  }
  EXPECT_TRUE(found) << "session missing from system.sessions";
}

TEST(ServerProfileTest, ServedQueriesRecordSessionAndLockAttribution) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  Database db;
  SetUpDatabase(&db);
  ServiceOptions opts;
  QueryService service(&db, opts);

  auto session = service.CreateSession();
  const std::string sql = "SELECT count(*) AS c FROM t WHERE val < 100";
  ASSERT_TRUE(session->Execute(sql).ok());

  auto profiles = session->Execute(
      "SELECT sql, session_id, lock_wait_ms, cpu_ms "
      "FROM system.query_profiles");
  ASSERT_TRUE(profiles.ok()) << profiles.status().ToString();
  bool found = false;
  for (int64_t i = 0; i < profiles->num_rows(); ++i) {
    if (profiles->column(0).GetValue(i).string_value() != sql) continue;
    found = true;
    EXPECT_EQ(profiles->column(1).GetValue(i).int_value(),
              static_cast<int64_t>(session->id()));
    EXPECT_GE(profiles->column(2).GetValue(i).float_value(), 0.0);
    EXPECT_GE(profiles->column(3).GetValue(i).float_value(), 0.0);
  }
  EXPECT_TRUE(found) << "served statement missing from system.query_profiles";
}

}  // namespace
}  // namespace dl2sql::server
