/// \file micro_db.cc
/// \brief google-benchmark microbenchmarks of the lindb engine primitives
/// underlying every experiment: scan+filter, hash join, group-by, SQL
/// parsing and row inserts (the symmetric hash join has its own ablation,
/// ablation_symmetric_join.cc).
#include <benchmark/benchmark.h>

#include "db/database.h"
#include "workload/dataset.h"

namespace dl2sql {
namespace {

db::Database* SetupDb(int64_t video_rows) {
  static db::Database* cached = nullptr;
  static int64_t cached_rows = -1;
  if (cached == nullptr || cached_rows != video_rows) {
    delete cached;
    cached = new db::Database();
    workload::DatasetOptions opts;
    opts.video_rows = video_rows;
    opts.keyframe_size = 4;  // tiny blobs: relational speed is the subject
    DL2SQL_CHECK(workload::PopulateDatabase(cached, opts).ok());
    cached_rows = video_rows;
  }
  return cached;
}

void BM_ScanFilter(benchmark::State& state) {
  db::Database* db = SetupDb(state.range(0));
  for (auto _ : state) {
    auto r = db->Execute(
        "SELECT count(*) FROM fabric WHERE humidity > 50 AND temperature > "
        "20");
    DL2SQL_CHECK(r.ok()) << r.status().ToString();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) / 10);
}
BENCHMARK(BM_ScanFilter)->Arg(10000)->Arg(100000);

void BM_HashJoin(benchmark::State& state) {
  db::Database* db = SetupDb(state.range(0));
  for (auto _ : state) {
    auto r = db->Execute(
        "SELECT count(*) FROM fabric F, video V WHERE F.transID = V.transID");
    DL2SQL_CHECK(r.ok()) << r.status().ToString();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoin)->Arg(10000)->Arg(100000);

void BM_GroupBy(benchmark::State& state) {
  db::Database* db = SetupDb(state.range(0));
  for (auto _ : state) {
    auto r = db->Execute(
        "SELECT patternID, sum(meter), avg(humidity) FROM fabric GROUP BY "
        "patternID");
    DL2SQL_CHECK(r.ok()) << r.status().ToString();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) / 10);
}
BENCHMARK(BM_GroupBy)->Arg(10000)->Arg(100000);

void BM_SqlParse(benchmark::State& state) {
  const std::string sql =
      "SELECT patternID, count(nUDF_detect(V.keyframe) = TRUE) / sum(meter) "
      "FROM fabric F, video V WHERE F.transID = V.transID and F.humidity > "
      "80 and F.temperature > 30 and F.printdate > '2021-01-01' GROUP BY "
      "patternID ORDER BY patternID LIMIT 10";
  for (auto _ : state) {
    auto r = db::sql::ParseStatement(sql);
    DL2SQL_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SqlParse);

void BM_InsertRows(benchmark::State& state) {
  for (auto _ : state) {
    db::Database db;
    DL2SQL_CHECK(db.Execute("CREATE TABLE t (a INT, b FLOAT)").ok());
    for (int i = 0; i < state.range(0); ++i) {
      auto r = db.Execute("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
                          std::to_string(i * 0.5) + ")");
      DL2SQL_CHECK(r.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InsertRows)->Arg(1000);

}  // namespace
}  // namespace dl2sql

BENCHMARK_MAIN();
