/// \file query_profiles_race_test.cc
/// \brief The query-log seqlock under write pressure: 8 writer sessions
/// overflow a tiny DL2SQL_QUERY_LOG_CAPACITY ring (every Record overwrites a
/// live slot) while readers scan system.query_profiles concurrently. Readers
/// must never observe a torn row — ids stay unique and monotone, and every
/// field combination belongs to one record. CI reruns this binary under
/// ThreadSanitizer (the name matches the TSAN pin regex in scripts/ci.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/mem_tracker.h"
#include "db/database.h"
#include "db/query_log.h"
#include "server/session.h"

namespace dl2sql::db {
namespace {

constexpr int kWriters = 8;

/// Direct seqlock hammer: field combinations are arithmetically linked, so a
/// reader that mixes two records is caught even without TSAN.
TEST(QueryProfilesRaceTest, SeqlockNeverYieldsTornRecordsAcrossWrap) {
  QueryLog log(/*capacity=*/8);  // writers lap the ring constantly
  constexpr int kPerWriter = 4000;

  std::atomic<bool> done{false};
  std::atomic<int64_t> next_value{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&log, &next_value] {
      for (int i = 0; i < kPerWriter; ++i) {
        const int64_t v = next_value.fetch_add(1, std::memory_order_relaxed);
        QueryLogRecord r;
        r.sql = "q" + std::to_string(v);
        r.kind = QueryKind::kSelect;
        r.duration_us = v;
        r.cpu_us = 2 * v;
        r.mem_peak_bytes = 3 * v;
        r.mem_cumulative_bytes = 5 * v;
        log.Record(r);
      }
    });
  }

  std::thread reader([&log, &done] {
    while (!done.load(std::memory_order_acquire)) {
      int64_t prev_id = -1;
      for (const QueryLogRecord& r : log.Snapshot()) {
        // Unique, strictly monotone ids (writer-sequence order).
        EXPECT_GT(r.id, prev_id);
        prev_id = r.id;
        // A torn read would break the arithmetic links between fields.
        EXPECT_EQ(r.cpu_us, 2 * r.duration_us) << "torn record id " << r.id;
        EXPECT_EQ(r.mem_peak_bytes, 3 * r.duration_us)
            << "torn record id " << r.id;
        EXPECT_EQ(r.mem_cumulative_bytes, 5 * r.duration_us)
            << "torn record id " << r.id;
        EXPECT_EQ(r.sql, "q" + std::to_string(r.duration_us))
            << "torn record id " << r.id;
      }
    }
  });
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(log.total_recorded(), kWriters * kPerWriter);
  EXPECT_EQ(log.Snapshot().size(), 8u);
}

/// End to end through the serving layer: 8 concurrent SELECT sessions wrap
/// the ring while two more scan system.query_profiles through SQL.
TEST(QueryProfilesRaceTest, ConcurrentScansSurviveRingOverflow) {
  const bool prior = MemTracker::Enabled();
  MemTracker::SetEnabled(true);
  ::setenv("DL2SQL_QUERY_LOG_CAPACITY", "8", 1);
  auto db = std::make_unique<Database>();
  ::unsetenv("DL2SQL_QUERY_LOG_CAPACITY");
  ASSERT_NE(db->query_log(), nullptr);
  ASSERT_EQ(db->query_log()->capacity(), 8u);

  TableSchema schema({{"id", DataType::kInt64}, {"val", DataType::kInt64}});
  Table t{schema};
  for (int64_t i = 0; i < 256; ++i) {
    DL2SQL_CHECK(t.AppendRow({Value::Int(i), Value::Int(i % 13)}).ok());
  }
  DL2SQL_CHECK(db->RegisterTable("t", std::move(t)).ok());

  server::ServiceOptions opts;
  opts.admission.max_concurrent = kWriters + 2;
  server::QueryService service(db.get(), opts);

  constexpr int kQueriesPerWriter = 60;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&service, w] {
      auto session = service.CreateSession();
      for (int i = 0; i < kQueriesPerWriter; ++i) {
        auto r = session->Execute(
            "SELECT sum(val) AS s FROM t WHERE id % " +
            std::to_string(2 + (w + i) % 7) + " = 0");
        EXPECT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  for (int s = 0; s < 2; ++s) {
    threads.emplace_back([&service, &done] {
      auto session = service.CreateSession();
      while (!done.load(std::memory_order_acquire)) {
        auto r = session->Execute(
            "SELECT id, duration_ms, cpu_ms, mem_peak_bytes "
            "FROM system.query_profiles");
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        int64_t prev = -1;
        for (int64_t i = 0; i < r->num_rows(); ++i) {
          const int64_t id = r->column(0).GetValue(i).int_value();
          EXPECT_GT(id, prev) << "ids not monotone";
          prev = id;
          EXPECT_GE(r->column(1).GetValue(i).float_value(), 0.0);
          EXPECT_GE(r->column(2).GetValue(i).float_value(), 0.0);
          EXPECT_GE(r->column(3).GetValue(i).int_value(), 0);
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  done.store(true, std::memory_order_release);
  threads[kWriters].join();
  threads[kWriters + 1].join();

  // Every writer statement was recorded (readers add their own on top).
  EXPECT_GE(db->query_log()->total_recorded(),
            int64_t{kWriters} * kQueriesPerWriter);
  MemTracker::SetEnabled(prior);
}

}  // namespace
}  // namespace dl2sql::db
