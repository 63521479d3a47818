/// \file ablation_symmetric_join.cc
/// \brief Ablation of the symmetric-hash-join buffer design (Section IV-B,
/// hint rule 3): throughput and eviction/cleanup behaviour across memory
/// budgets and arrival batch sizes. Every run must give the unbounded run's
/// pairs (BENCH_CHECK aborts the binary otherwise), so the cleanup phase is
/// checked at a size the unit tests do not reach.
#include <algorithm>
#include <limits>

#include "bench/bench_util.h"
#include "common/mem_tracker.h"
#include "common/random.h"
#include "db/exec/symmetric_hash_join.h"

using namespace dl2sql;          // NOLINT
using namespace dl2sql::bench;   // NOLINT
using namespace dl2sql::db;      // NOLINT

namespace {

using Pairs = std::vector<std::pair<int64_t, int64_t>>;

Table MakeKeyedTable(int64_t rows, int64_t key_range, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> keys(static_cast<size_t>(rows));
  for (auto& k : keys) k = rng.UniformInt(0, key_range - 1);
  auto t = Table::FromColumns(TableSchema({{"k", DataType::kInt64}}),
                              {Column::Ints(std::move(keys))});
  return std::move(t).ValueOrDie();
}

/// Joins `left` and `right` on column k; returns the pairs, sorted, and the
/// join's own seconds.
Pairs Join(const Table& left, const Table& right,
           const SymmetricHashJoinOptions& opts, SymmetricHashJoinStats* stats,
           double* seconds) {
  ExprPtr key = Expr::BoundCol(0, "k");
  UdfRegistry udfs;
  EvalContext ctx;
  ctx.udfs = &udfs;
  ScopedMemCharge uncharged(nullptr);
  std::vector<int64_t> lrows, rrows;
  Stopwatch watch;
  BENCH_CHECK_OK(SymmetricHashJoinPairs(
      left, right, *key, *key, &ctx, opts, &uncharged,
      std::numeric_limits<size_t>::max(), &lrows, &rrows, stats));
  *seconds = watch.ElapsedSeconds();
  Pairs pairs(lrows.size());
  for (size_t i = 0; i < pairs.size(); ++i) pairs[i] = {lrows[i], rrows[i]};
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

}  // namespace

int main() {
  const int64_t rows = FullScale() ? 100000 : 20000;
  const int64_t key_range = rows / 20;
  Table left = MakeKeyedTable(rows, key_range, 1);
  Table right = MakeKeyedTable(rows, key_range, 2);
  Pairs reference;  // the unbounded run's (budget 0 comes first)

  PrintHeader("Ablation: symmetric hash join vs memory budget (" +
                  std::to_string(rows) + " rows/side)",
              {"Budget", "Seconds", "EvictedBkts", "EvictedTpls",
               "CleanupPairs"});
  for (int64_t budget : std::vector<int64_t>{0, rows / 16, rows / 4, rows, 4 * rows}) {
    SymmetricHashJoinOptions opts;
    opts.batch_size = 256;
    opts.memory_budget_tuples = budget;
    SymmetricHashJoinStats stats;
    double seconds = 0;
    const Pairs pairs = Join(left, right, opts, &stats, &seconds);
    if (budget == 0) reference = pairs;
    BENCH_CHECK(pairs == reference);
    PrintCell(budget);
    PrintCell(seconds);
    PrintCell(stats.evicted_buckets);
    PrintCell(stats.evicted_tuples);
    PrintCell(stats.cleanup_pairs);
    EndRow();
  }

  PrintHeader("Ablation: batch size (unbounded memory)",
              {"BatchSize", "Seconds", "OnlinePairs"});
  for (int64_t batch : std::vector<int64_t>{8, 64, 512, 4096}) {
    SymmetricHashJoinOptions opts;
    opts.batch_size = batch;
    SymmetricHashJoinStats stats;
    double seconds = 0;
    BENCH_CHECK(Join(left, right, opts, &stats, &seconds) == reference);
    PrintCell(batch);
    PrintCell(seconds);
    PrintCell(stats.online_pairs);
    EndRow();
  }
  return 0;
}
