/// \file symmetric_join_test.cc
/// \brief Symmetric hash join with bucket-LRU: exact-result property under
/// every memory budget, eviction accounting, batch-size sweeps, and key
/// shapes beyond one INT64 column (cross-type, NULL-bearing, string and
/// expression keys).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/mem_tracker.h"
#include "common/random.h"
#include "db/exec/symmetric_hash_join.h"

namespace dl2sql::db {
namespace {

using Pairs = std::vector<std::pair<int64_t, int64_t>>;

constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();

Table MakeKeyedTable(const std::vector<int64_t>& keys) {
  TableSchema schema({{"k", DataType::kInt64}});
  auto t = Table::FromColumns(schema, {Column::Ints(keys)});
  return std::move(t).ValueOrDie();
}

/// One-column table "k" of `type` holding `keys` (NULLs included).
Table MakeValueTable(DataType type, const std::vector<Value>& keys) {
  Table t{TableSchema({{"k", type}})};
  for (const Value& v : keys) DL2SQL_CHECK(t.AppendRow({v}).ok());
  return t;
}

/// Reference join: all (l, r) index pairs with equal keys.
Pairs ReferencePairs(const std::vector<int64_t>& l,
                     const std::vector<int64_t>& r) {
  Pairs out;
  for (size_t i = 0; i < l.size(); ++i) {
    for (size_t j = 0; j < r.size(); ++j) {
      if (l[i] == r[j]) out.emplace_back(i, j);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Nested-loop reference over key values: non-NULL keys that compare equal
/// (INT64 3 equals FLOAT64 3.0).
Pairs ReferencePairs(const std::vector<Value>& l, const std::vector<Value>& r) {
  Pairs out;
  for (size_t i = 0; i < l.size(); ++i) {
    for (size_t j = 0; j < r.size(); ++j) {
      if (!l[i].is_null() && !r[j].is_null() && l[i].Compare(r[j]) == 0) {
        out.emplace_back(i, j);
      }
    }
  }
  return out;
}

/// The join's pairs in emission order.
Result<Pairs> JoinPairs(const Table& lt, const Table& rt, const Expr& lkey,
                        const Expr& rkey, const SymmetricHashJoinOptions& opts,
                        SymmetricHashJoinStats* stats = nullptr,
                        size_t limit = kNoLimit) {
  UdfRegistry udfs;
  EvalContext ctx;
  ctx.udfs = &udfs;
  ScopedMemCharge uncharged(nullptr);
  std::vector<int64_t> lrows, rrows;
  DL2SQL_RETURN_NOT_OK(SymmetricHashJoinPairs(lt, rt, lkey, rkey, &ctx, opts,
                                              &uncharged, limit, &lrows,
                                              &rrows, stats));
  Pairs out(lrows.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = {lrows[i], rrows[i]};
  return out;
}

Pairs SortedJoin(const Table& lt, const Table& rt, const Expr& lkey,
                 const Expr& rkey, const SymmetricHashJoinOptions& opts,
                 SymmetricHashJoinStats* stats = nullptr) {
  auto pairs = JoinPairs(lt, rt, lkey, rkey, opts, stats);
  DL2SQL_CHECK(pairs.ok()) << pairs.status().ToString();
  Pairs out = *pairs;
  std::sort(out.begin(), out.end());
  return out;
}

Pairs RunJoin(const std::vector<int64_t>& l, const std::vector<int64_t>& r,
              const SymmetricHashJoinOptions& opts,
              SymmetricHashJoinStats* stats = nullptr) {
  ExprPtr key = Expr::BoundCol(0, "k");
  return SortedJoin(MakeKeyedTable(l), MakeKeyedTable(r), *key, *key, opts,
                    stats);
}

TEST(SymmetricHashJoinTest, MatchesReferenceNoEviction) {
  Rng rng(1);
  std::vector<int64_t> l, r;
  for (int i = 0; i < 200; ++i) l.push_back(rng.UniformInt(0, 20));
  for (int i = 0; i < 150; ++i) r.push_back(rng.UniformInt(0, 20));
  SymmetricHashJoinOptions opts;
  opts.batch_size = 16;
  EXPECT_EQ(RunJoin(l, r, opts), ReferencePairs(l, r));
}

/// The core property: any memory budget must still produce the exact join
/// (evictions recovered by the cleanup phase).
class BudgetSweepTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(BudgetSweepTest, ExactUnderEviction) {
  Rng rng(GetParam() + 7);
  std::vector<int64_t> l, r;
  for (int i = 0; i < 300; ++i) l.push_back(rng.UniformInt(0, 15));
  for (int i = 0; i < 250; ++i) r.push_back(rng.UniformInt(0, 15));
  SymmetricHashJoinOptions opts;
  opts.batch_size = 8;
  opts.memory_budget_tuples = GetParam();
  SymmetricHashJoinStats stats;
  EXPECT_EQ(RunJoin(l, r, opts, &stats), ReferencePairs(l, r))
      << "budget=" << GetParam();
  if (GetParam() > 0 && GetParam() < 100) {
    EXPECT_GT(stats.evicted_tuples, 0);
    EXPECT_GT(stats.cleanup_pairs, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetSweepTest,
                         ::testing::Values(0, 8, 16, 32, 64, 128, 10000));

class BatchSweepTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(BatchSweepTest, BatchSizeDoesNotChangeResult) {
  Rng rng(3);
  std::vector<int64_t> l, r;
  for (int i = 0; i < 120; ++i) l.push_back(rng.UniformInt(0, 9));
  for (int i = 0; i < 77; ++i) r.push_back(rng.UniformInt(0, 9));
  SymmetricHashJoinOptions opts;
  opts.batch_size = GetParam();
  EXPECT_EQ(RunJoin(l, r, opts), ReferencePairs(l, r));
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchSweepTest,
                         ::testing::Values(1, 3, 17, 64, 1000));

TEST(SymmetricHashJoinTest, EmptyInputs) {
  SymmetricHashJoinOptions opts;
  EXPECT_TRUE(RunJoin({}, {}, opts).empty());
  EXPECT_TRUE(RunJoin({1, 2}, {}, opts).empty());
  EXPECT_TRUE(RunJoin({}, {1, 2}, opts).empty());
}

TEST(SymmetricHashJoinTest, NullKeysNeverJoin) {
  Table lt = MakeValueTable(DataType::kInt64, {Value::Int(1), Value::Null()});
  Table rt = MakeValueTable(DataType::kInt64, {Value::Null(), Value::Int(1)});
  ExprPtr key = Expr::BoundCol(0, "k");
  auto pairs = JoinPairs(lt, rt, *key, *key, {});
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs->size(), 1u);
  EXPECT_EQ((*pairs)[0], (std::pair<int64_t, int64_t>{0, 1}));
}

TEST(SymmetricHashJoinTest, InvalidBatchSizeRejected) {
  SymmetricHashJoinOptions opts;
  opts.batch_size = 0;
  Table t = MakeKeyedTable({1});
  ExprPtr key = Expr::BoundCol(0, "k");
  EXPECT_FALSE(JoinPairs(t, t, *key, *key, opts).ok());
}

TEST(SymmetricHashJoinTest, ExpressionKeys) {
  // Join on k % 5 from both sides.
  Rng rng(5);
  std::vector<int64_t> l, r;
  for (int i = 0; i < 60; ++i) l.push_back(rng.UniformInt(0, 100));
  for (int i = 0; i < 40; ++i) r.push_back(rng.UniformInt(0, 100));
  auto key = Expr::Binary(BinaryOp::kMod, Expr::BoundCol(0, "k"),
                          Expr::Lit(Value::Int(5)));
  std::vector<int64_t> lmod, rmod;
  for (int64_t v : l) lmod.push_back(v % 5);
  for (int64_t v : r) rmod.push_back(v % 5);
  EXPECT_EQ(SortedJoin(MakeKeyedTable(l), MakeKeyedTable(r), *key, *key, {}),
            ReferencePairs(lmod, rmod));
}

/// Two inputs, their key expressions, and the key values the nested-loop
/// reference compares.
struct KeyShape {
  std::string name;
  Table left, right;
  ExprPtr lkey, rkey;
  std::vector<Value> lvals, rvals;
};

std::vector<KeyShape> KeyShapes() {
  Rng rng(11);
  auto ints = [&](int n, int64_t hi, bool nulls) {
    std::vector<Value> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(nulls && rng.UniformInt(0, 3) == 0
                        ? Value::Null()
                        : Value::Int(rng.UniformInt(0, hi)));
    }
    return out;
  };
  std::vector<KeyShape> shapes;
  ExprPtr col = Expr::BoundCol(0, "k");
  {
    // INT64 against FLOAT64, integral and not.
    std::vector<Value> floats;
    for (int i = 0; i < 70; ++i) {
      const double v = static_cast<double>(rng.UniformInt(0, 11));
      floats.push_back(Value::Float(rng.UniformInt(0, 2) == 0 ? v + 0.5 : v));
    }
    std::vector<Value> l = ints(90, 11, false);
    shapes.push_back({"int64 = float64", MakeValueTable(DataType::kInt64, l),
                      MakeValueTable(DataType::kFloat64, floats), col, col,
                      l, floats});
  }
  {
    std::vector<Value> l = ints(90, 9, true);
    std::vector<Value> r = ints(70, 9, true);
    shapes.push_back({"NULLs on both sides",
                      MakeValueTable(DataType::kInt64, l),
                      MakeValueTable(DataType::kInt64, r), col, col, l, r});
  }
  {
    auto strings = [&](int n) {
      std::vector<Value> out;
      for (int i = 0; i < n; ++i) {
        out.push_back(rng.UniformInt(0, 9) == 0
                          ? Value::Null()
                          : Value::String("key" + std::to_string(
                                                      rng.UniformInt(0, 9))));
      }
      return out;
    };
    std::vector<Value> l = strings(80);
    std::vector<Value> r = strings(60);
    shapes.push_back({"string", MakeValueTable(DataType::kString, l),
                      MakeValueTable(DataType::kString, r), col, col, l, r});
  }
  {
    // k + 1 over a NULL-bearing column evaluates to FLOAT64.
    std::vector<Value> l = ints(90, 10, true);
    std::vector<Value> r = ints(70, 11, false);
    std::vector<Value> plus_one;
    for (const Value& v : l) {
      plus_one.push_back(v.is_null() ? v : Value::Int(v.int_value() + 1));
    }
    shapes.push_back({"k + 1 over NULLs", MakeValueTable(DataType::kInt64, l),
                      MakeValueTable(DataType::kInt64, r),
                      Expr::Binary(BinaryOp::kAdd, col,
                                   Expr::Lit(Value::Int(1))),
                      col, plus_one, r});
  }
  return shapes;
}

TEST(SymmetricHashJoinTest, KeyShapesMatchReferenceAtEveryBudgetAndBatch) {
  for (const KeyShape& s : KeyShapes()) {
    const Pairs want = ReferencePairs(s.lvals, s.rvals);
    ASSERT_FALSE(want.empty()) << s.name;
    for (int64_t budget : {0, 8, 64}) {
      for (int64_t batch : {1, 8, 64}) {
        SCOPED_TRACE(s.name + ", budget " + std::to_string(budget) +
                     ", batch " + std::to_string(batch));
        SymmetricHashJoinOptions opts;
        opts.batch_size = batch;
        opts.memory_budget_tuples = budget;
        SymmetricHashJoinStats stats;
        EXPECT_EQ(SortedJoin(s.left, s.right, *s.lkey, *s.rkey, opts, &stats),
                  want);
        if (budget == 8) {
          EXPECT_GT(stats.cleanup_pairs, 0);
        }
      }
    }
  }
}

TEST(SymmetricHashJoinTest, BucketEvictedByItsProberIsNotRecoveredTwice) {
  // One key: each side holds one bucket, so the tuple whose probe has just
  // touched the other side's bucket may evict it in the same step. The probe
  // emitted those pairs online; the cleanup must not emit them again.
  const std::vector<int64_t> keys(10, 7);
  for (int64_t budget : {1, 2, 4}) {
    for (int64_t batch : {1, 3}) {
      SymmetricHashJoinOptions opts;
      opts.batch_size = batch;
      opts.memory_budget_tuples = budget;
      EXPECT_EQ(RunJoin(keys, keys, opts), ReferencePairs(keys, keys))
          << "budget " << budget << ", batch " << batch;
    }
  }
}

TEST(SymmetricHashJoinTest, StopsAtPairLimit) {
  ExprPtr key = Expr::BoundCol(0, "k");
  const Table t = MakeKeyedTable(std::vector<int64_t>(10, 7));  // 100 pairs
  for (int64_t budget : {0, 4}) {
    SymmetricHashJoinOptions opts;
    opts.batch_size = 3;
    opts.memory_budget_tuples = budget;
    auto all = JoinPairs(t, t, *key, *key, opts);
    ASSERT_TRUE(all.ok());
    ASSERT_EQ(all->size(), 100u);
    auto capped = JoinPairs(t, t, *key, *key, opts, nullptr, 25);
    ASSERT_TRUE(capped.ok());
    // The tuple that reaches the limit emits all of its pairs, then the
    // join stops: a prefix of the uncapped emission.
    ASSERT_GE(capped->size(), 25u);
    ASSERT_LT(capped->size(), 100u);
    EXPECT_TRUE(std::equal(capped->begin(), capped->end(), all->begin()));
  }
}

}  // namespace
}  // namespace dl2sql::db
