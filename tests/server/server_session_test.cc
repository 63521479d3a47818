/// \file server_session_test.cc
/// \brief QueryService/Session: thread-safe concurrent entry into one
/// Database. Run under TSAN in CI (ctest -R server): two threads issuing
/// mixed DML + SELECT must be race-free, with plan/nUDF cache invalidation
/// staying correct under concurrency, and concurrent nUDF queries must return
/// what each returns when run alone.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "accel/device.h"
#include "common/logging.h"
#include "common/timer.h"
#include "server/session.h"

namespace dl2sql::server {
namespace {

using db::DataType;
using db::Database;
using db::NUdfInfo;
using db::Table;
using db::TableSchema;
using db::Value;

std::shared_ptr<Device> MakeCpuDevice(int threads) {
  DeviceProfile profile = Device::ServerCpuProfile();
  profile.name = "server-test-cpu-" + std::to_string(threads);
  profile.num_threads = threads;
  return std::make_shared<Device>(profile);
}

void RegisterAffineNudf(Database* db, uint64_t fingerprint) {
  NUdfInfo info;
  info.model_name = "affine";
  info.fingerprint = fingerprint;
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

void MakeTable(Database* db, const std::string& name, int64_t rows) {
  TableSchema schema({{"id", DataType::kInt64}, {"val", DataType::kInt64}});
  Table t{schema};
  for (int64_t i = 0; i < rows; ++i) {
    DL2SQL_CHECK(t.AppendRow({Value::Int(i), Value::Int(i % 97)}).ok());
  }
  DL2SQL_CHECK(db->RegisterTable(name, std::move(t)).ok());
}

TEST(ServerSession, ConcurrentMixedDmlAndSelect) {
  auto device = MakeCpuDevice(4);
  Database db;
  db.set_exec_options({device.get(), /*morsel_size=*/512});
  MakeTable(&db, "t", 2000);
  RegisterAffineNudf(&db, /*fingerprint=*/0xfeedULL);

  ServiceOptions opts;
  opts.admission.max_concurrent = 4;
  QueryService service(&db, opts);

  constexpr int kWriters = 1;
  constexpr int kReaders = 1;
  constexpr int kOpsPerThread = 60;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  // Writer: INSERTs (each bumps the catalog version, invalidating cached
  // plans) interleaved with SELECTs of its own.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&service, &failures] {
      auto session = service.CreateSession();
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto ins = session->Execute("INSERT INTO t VALUES (100000, 1)");
        if (!ins.ok()) {
          ++failures;
          continue;
        }
        auto sel = session->Execute("SELECT count(*) FROM t WHERE val = 1");
        if (!sel.ok()) ++failures;
      }
    });
  }
  // Reader: SELECTs through the plan cache plus nUDF-bearing queries through
  // the result cache; every result must be internally consistent.
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&service, &failures] {
      auto session = service.CreateSession();
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto c = session->Execute("SELECT count(*) FROM t");
        if (!c.ok() || c->column(0).GetValue(0).int_value() < 2000) {
          ++failures;
        }
        auto n = session->Execute(
            "SELECT sum(nudf_affine(val)) AS s FROM t WHERE id < 64");
        // id < 64 rows are never touched by the writer, so this sum is a
        // constant: sum(2*val + 1) for val = id % 97, id in [0, 64).
        if (!n.ok() ||
            n->column(0).GetValue(0).float_value() != 2.0 * (63 * 64 / 2) + 64) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  // Cache invalidation stayed correct: the final count reflects every INSERT.
  auto session = service.CreateSession();
  auto final_count = session->Execute("SELECT count(*) FROM t");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count->column(0).GetValue(0).int_value(),
            2000 + kWriters * kOpsPerThread);
  EXPECT_EQ(session->statements_ok(), 1);
}

TEST(ServerSession, ConcurrentNudfSessionsMatchSerialResults) {
  auto device = MakeCpuDevice(4);
  Database db;
  db.set_exec_options({device.get(), /*morsel_size=*/256});
  // The result cache would answer repeat rows; with it off every query sends
  // all its rows to the model, from several sessions at once.
  db::CacheOptions cache;
  cache.enable_nudf_cache = false;
  db.set_cache_options(cache);
  MakeTable(&db, "t", 3000);
  RegisterAffineNudf(&db, /*fingerprint=*/0xabc123ULL);

  ServiceOptions opts;
  opts.admission.max_concurrent = 4;
  QueryService service(&db, opts);

  const std::vector<std::string> queries = {
      "SELECT id, nudf_affine(val) AS p FROM t WHERE id % 4 = 0",
      "SELECT id, nudf_affine(val) AS p FROM t WHERE id % 4 = 1",
      "SELECT id, nudf_affine(val) AS p FROM t WHERE id % 4 = 2",
      "SELECT sum(nudf_affine(val)) AS s FROM t WHERE id % 4 = 3",
  };
  // Each query run alone is the reference.
  std::vector<std::string> serial;
  {
    auto session = service.CreateSession();
    for (const std::string& q : queries) {
      auto r = session->Execute(q);
      ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
      serial.push_back(RenderTable(*r, OutputFormat::kTsv));
      EXPECT_FALSE(serial.back().empty());
    }
  }

  std::vector<std::string> concurrent(queries.size());
  std::vector<std::thread> threads;
  for (size_t q = 0; q < queries.size(); ++q) {
    threads.emplace_back([&service, &queries, &concurrent, q] {
      auto session = service.CreateSession();
      auto r = session->Execute(queries[q]);
      EXPECT_TRUE(r.ok()) << queries[q] << ": " << r.status().ToString();
      if (r.ok()) concurrent[q] = RenderTable(*r, OutputFormat::kTsv);
    });
  }
  for (auto& t : threads) t.join();
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(concurrent[q], serial[q]) << queries[q];
  }
}

TEST(ServerSession, AdmissionRejectsInsteadOfHanging) {
  AdmissionController admission(
      {/*max_concurrent=*/1, /*max_queue_depth=*/0, /*queue_timeout_ms=*/50.0});
  ASSERT_TRUE(admission.Admit().ok());
  EXPECT_EQ(admission.running(), 1);
  // Slot taken and no queue allowed: immediate ResourceExhausted.
  const Status st = admission.Admit();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  admission.Release();
  EXPECT_EQ(admission.running(), 0);
  ASSERT_TRUE(admission.Admit().ok());
  admission.Release();
}

TEST(ServerSession, AdmissionQueueTimesOut) {
  AdmissionController admission(
      {/*max_concurrent=*/1, /*max_queue_depth=*/4, /*queue_timeout_ms=*/20.0});
  ASSERT_TRUE(admission.Admit().ok());
  Stopwatch watch;
  const Status st = admission.Admit();  // queues, then times out
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(watch.ElapsedSeconds(), 0.015);
  admission.Release();
}

TEST(ServerSession, AdmissionIsFifo) {
  AdmissionController admission({/*max_concurrent=*/1, /*max_queue_depth=*/8,
                                 /*queue_timeout_ms=*/5000.0});
  ASSERT_TRUE(admission.Admit().ok());
  std::vector<int> order;
  std::mutex order_mu;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&admission, &order, &order_mu, i] {
      EXPECT_TRUE(admission.Admit().ok());
      {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(i);
      }
      admission.Release();
    });
    // Stagger arrivals so queue order is deterministic.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  admission.Release();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ServerSession, RowBudgetRejectsOversizedResults) {
  Database db;
  MakeTable(&db, "t", 100);
  ServiceOptions opts;
  opts.max_result_rows = 10;
  QueryService service(&db, opts);
  auto session = service.CreateSession();

  ASSERT_TRUE(session->Execute("SELECT id FROM t WHERE id < 10").ok());
  auto big = session->Execute("SELECT id FROM t");
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(session->statements_failed(), 1);
}

TEST(ServerSession, StatementDeadlineReportedAsStatus) {
  Database db;
  MakeTable(&db, "t", 5000);
  ServiceOptions opts;
  opts.statement_timeout_ms = 1e-6;  // everything exceeds this
  QueryService service(&db, opts);
  auto session = service.CreateSession();
  auto r = session->Execute("SELECT count(*) FROM t WHERE val > 3");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(ServerSession, SyntaxErrorsDoNotConsumeSlots) {
  Database db;
  QueryService service(&db, ServiceOptions{});
  auto session = service.CreateSession();
  auto r = session->Execute("NOT SQL AT ALL");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(service.admission().running(), 0);
}

}  // namespace
}  // namespace dl2sql::server
