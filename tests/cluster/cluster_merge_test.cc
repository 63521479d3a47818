/// \file cluster_merge_test.cc
/// \brief Unit tests for the coordinator's merge layer (merge.h) and the
/// hash partitioner (hash_partitioner.h) — pure table-in/table-out, no
/// sockets. The golden hash values pin cross-platform determinism: a
/// coordinator restarted on any build or architecture must agree with the
/// shard layout its predecessor wrote.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/hash_partitioner.h"
#include "cluster/merge.h"
#include "db/storage/storage_engine.h"
#include "db/table.h"

namespace dl2sql::cluster {
namespace {

db::TableSchema IntSchema(const std::vector<std::string>& names) {
  std::vector<db::Field> cols;
  for (const std::string& n : names) cols.push_back({n, db::DataType::kInt64});
  return db::TableSchema(cols);
}

db::Table IntTable(const db::TableSchema& schema,
                   const std::vector<std::vector<int64_t>>& rows) {
  db::Table t{schema};
  for (const auto& row : rows) {
    std::vector<db::Value> vals;
    for (int64_t v : row) vals.push_back(db::Value::Int(v));
    EXPECT_TRUE(t.AppendRow(vals).ok());
  }
  return t;
}

std::vector<int64_t> Column(const db::Table& t, int col) {
  std::vector<int64_t> out;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    out.push_back(t.GetRow(r)[col].AsInt().ValueOr(-999));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Hash partitioner determinism.
// ---------------------------------------------------------------------------

TEST(HashPartitioner, GoldenValuesArePlatformIndependent) {
  // FNV-1a 64 over the canonical key encoding, computed once and pinned.
  // If any of these change, every existing cluster's data placement breaks:
  // treat a failure here as an ABI break, not a test to update.
  EXPECT_EQ(PartitionHash(db::Value::Int(0)), 0x0cd92cf54dc615e5ULL);
  EXPECT_EQ(PartitionHash(db::Value::Int(1)), 0xedde65ec42d6cbc4ULL);
  EXPECT_EQ(PartitionHash(db::Value::Int(42)), 0x21fdd47119083f4fULL);
  EXPECT_EQ(PartitionHash(db::Value::Int(-7)), 0x46d68c00a4e46c1bULL);
  EXPECT_EQ(PartitionHash(db::Value::Float(2.5)), 0x797caf97b9371936ULL);
  EXPECT_EQ(PartitionHash(db::Value::String("video_17")),
            0xc9f89c9c3f52f35bULL);
  EXPECT_EQ(PartitionHash(db::Value::String("")), 0xb200c32f2fee3fc3ULL);
  EXPECT_EQ(PartitionHash(db::Value::Bool(true)), 0x082f2307b4e88e77ULL);
  EXPECT_EQ(PartitionHash(db::Value::Null()), 0xaf63bd4c8601b7dfULL);
}

TEST(HashPartitioner, IntegralFloatLandsWithMatchingInt) {
  // Mirrors row_key.h: a key of 3 and 3.0 are the same group, so they must
  // also be the same shard.
  EXPECT_EQ(PartitionHash(db::Value::Float(3.0)),
            PartitionHash(db::Value::Int(3)));
  EXPECT_NE(PartitionHash(db::Value::Float(2.5)),
            PartitionHash(db::Value::Int(2)));
}

TEST(HashPartitioner, ShardIndexInRangeAndSpreads) {
  for (int shards : {1, 2, 3, 4, 7}) {
    std::vector<int64_t> per_shard(static_cast<size_t>(shards), 0);
    for (int64_t k = 0; k < 1000; ++k) {
      const int s = ShardIndexFor(db::Value::Int(k), shards);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, shards);
      ++per_shard[static_cast<size_t>(s)];
    }
    // Loose balance bound: FNV over sequential ints should not starve any
    // shard (perfectly uniform would be 1000/shards each).
    for (int64_t n : per_shard) {
      EXPECT_GT(n, 1000 / shards / 2) << shards << " shards";
    }
  }
  EXPECT_EQ(ShardIndexFor(db::Value::Int(123), 1), 0);
}

// ---------------------------------------------------------------------------
// Concatenation and k-way merge.
// ---------------------------------------------------------------------------

TEST(ClusterMerge, ConcatKeepsShardOrderAndAppliesLimit) {
  const db::TableSchema schema = IntSchema({"v"});
  const std::vector<db::Table> parts = {IntTable(schema, {{1}, {2}}),
                                        IntTable(schema, {{3}}),
                                        IntTable(schema, {{4}, {5}})};
  auto all = ConcatTables(schema, parts, -1);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(Column(*all, 0), (std::vector<int64_t>{1, 2, 3, 4, 5}));

  auto limited = ConcatTables(schema, parts, 3);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(Column(*limited, 0), (std::vector<int64_t>{1, 2, 3}));
}

TEST(ClusterMerge, ConcatAppendsTypedColumnsKeepingNulls) {
  const db::TableSchema schema({{"v", db::DataType::kInt64},
                                {"s", db::DataType::kString}});
  auto table = [&](const std::vector<std::vector<db::Value>>& rows) {
    db::Table t{schema};
    for (const auto& row : rows) EXPECT_TRUE(t.AppendRow(row).ok());
    return t;
  };
  using db::Value;
  // A NULL-free shard, one with NULLs in both columns, and a paged one
  // (its rows are decoded, then appended like the others).
  db::Table paged = table({{Value::Int(5), Value::Null()}});
  db::storage::StorageOptions opts;
  opts.pool_bytes = 64 * 4096;
  opts.block_bytes = 4096;
  opts.shards = 1;
  auto engine = db::storage::StorageEngine::Create(opts);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE(paged.PageOut(*engine).ok());
  ASSERT_TRUE(paged.is_paged());
  const std::vector<db::Table> parts = {
      table({{Value::Int(1), Value::String("a")}}),
      table({{Value::Null(), Value::String("b")},
             {Value::Int(3), Value::Null()}}),
      paged};
  auto all = ConcatTables(schema, parts, -1);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_FALSE(all->is_paged());
  EXPECT_EQ(all->ToString(), "v | s\n1 | a\nNULL | b\n3 | NULL\n5 | NULL\n");
  EXPECT_TRUE(all->column(0).HasNulls());
  EXPECT_FALSE(all->column(0).IsValid(1));
  EXPECT_FALSE(all->column(1).IsValid(2));
  EXPECT_TRUE(all->column(1).IsValid(1));

  // A shard whose column types differ is refused, naming the column.
  const db::Table floats{db::TableSchema(
      {{"v", db::DataType::kFloat64}, {"s", db::DataType::kString}})};
  auto mismatch = ConcatTables(schema, {parts[0], floats}, -1);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kTypeError)
      << mismatch.status().ToString();

  // A refused row append names its column.
  db::Table t{schema};
  const Status bad = t.AppendRow({Value::String("x"), Value::String("y")});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.ToString().find("column v"), std::string::npos)
      << bad.ToString();
  EXPECT_EQ(t.num_rows(), 0);
}

TEST(ClusterMerge, KWayMergeReproducesSingleNodeOrdering) {
  // Interleaved sorted runs: merging them must equal sorting the union.
  const db::TableSchema schema = IntSchema({"id", "payload"});
  const std::vector<db::Table> parts = {
      IntTable(schema, {{0, 100}, {3, 103}, {4, 104}, {9, 109}}),
      IntTable(schema, {{1, 101}, {2, 102}, {8, 108}}),
      IntTable(schema, {{5, 105}, {6, 106}, {7, 107}})};
  auto merged = MergeSortedTables(schema, parts, {{0, true}}, -1);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(Column(*merged, 0),
            (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(Column(*merged, 1), (std::vector<int64_t>{100, 101, 102, 103, 104,
                                                      105, 106, 107, 108, 109}));

  auto top3 = MergeSortedTables(schema, parts, {{0, true}}, 3);
  ASSERT_TRUE(top3.ok());
  EXPECT_EQ(Column(*top3, 0), (std::vector<int64_t>{0, 1, 2}));
}

TEST(ClusterMerge, KWayMergeDescending) {
  const db::TableSchema schema = IntSchema({"id"});
  const std::vector<db::Table> parts = {IntTable(schema, {{9}, {4}, {0}}),
                                        IntTable(schema, {{8}, {5}})};
  auto merged = MergeSortedTables(schema, parts, {{0, false}}, 4);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(Column(*merged, 0), (std::vector<int64_t>{9, 8, 5, 4}));
}

TEST(ClusterMerge, KWayMergeTiesAreStableByShardIndex) {
  // Equal keys: lower shard index wins, then that shard's own row order —
  // the property that makes the merge deterministic run to run.
  const db::TableSchema schema = IntSchema({"k", "src"});
  const std::vector<db::Table> parts = {
      IntTable(schema, {{1, 0}, {1, 0}, {2, 0}}),
      IntTable(schema, {{1, 1}, {2, 1}})};
  auto merged = MergeSortedTables(schema, parts, {{0, true}}, -1);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(Column(*merged, 0), (std::vector<int64_t>{1, 1, 1, 2, 2}));
  EXPECT_EQ(Column(*merged, 1), (std::vector<int64_t>{0, 0, 1, 0, 1}));
}

TEST(ClusterMerge, KWayMergeNullsFirst) {
  const db::TableSchema schema = IntSchema({"k"});
  db::Table with_null{schema};
  ASSERT_TRUE(with_null.AppendRow({db::Value::Null()}).ok());
  ASSERT_TRUE(with_null.AppendRow({db::Value::Int(5)}).ok());
  const std::vector<db::Table> parts = {IntTable(schema, {{2}}),
                                        std::move(with_null)};
  auto merged = MergeSortedTables(schema, parts, {{0, true}}, -1);
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->num_rows(), 3);
  EXPECT_TRUE(merged->GetRow(0)[0].is_null());
  EXPECT_EQ(merged->GetRow(1)[0].AsInt().ValueOr(-1), 2);
  EXPECT_EQ(merged->GetRow(2)[0].AsInt().ValueOr(-1), 5);
}

// ---------------------------------------------------------------------------
// Partial-aggregate re-aggregation.
// ---------------------------------------------------------------------------

TEST(ClusterMerge, GlobalAggregatesMergeAcrossShards) {
  // Partials: [count, sum, min, max] with no group keys — every shard
  // contributes exactly one row. SUM re-aggregates as float64, matching the
  // engine's aggregate typing (vector_aggregate types SUM/AVG as kFloat64).
  const db::TableSchema partial = IntSchema({"c", "s", "lo", "hi"});
  const db::TableSchema out = db::TableSchema({{"c", db::DataType::kInt64},
                                               {"s", db::DataType::kFloat64},
                                               {"lo", db::DataType::kInt64},
                                               {"hi", db::DataType::kInt64}});
  const std::vector<db::Table> parts = {
      IntTable(partial, {{3, 30, 2, 17}}),
      IntTable(partial, {{2, 12, -5, 9}})};
  const std::vector<MergeOutputSpec> outputs = {
      {MergeOutputSpec::Kind::kCount, 0, -1},
      {MergeOutputSpec::Kind::kSum, 1, -1},
      {MergeOutputSpec::Kind::kMin, 2, -1},
      {MergeOutputSpec::Kind::kMax, 3, -1}};
  auto merged = MergeAggregatePartials(out, parts, /*num_keys=*/0, outputs);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged->num_rows(), 1);
  EXPECT_EQ(Column(*merged, 0), (std::vector<int64_t>{5}));
  EXPECT_DOUBLE_EQ(merged->GetRow(0)[1].AsDouble().ValueOr(0), 42.0);
  EXPECT_EQ(Column(*merged, 2), (std::vector<int64_t>{-5}));
  EXPECT_EQ(Column(*merged, 3), (std::vector<int64_t>{17}));
}

TEST(ClusterMerge, GroupKeysSplitAcrossShardsMergeIntoOneGroup) {
  // Group 1 has rows on both shards; group 2 only on shard 0, group 3 only
  // on shard 1. Output must have one row per group, keys ascending.
  const db::TableSchema partial = IntSchema({"g", "c", "s"});
  const db::TableSchema out = db::TableSchema({{"g", db::DataType::kInt64},
                                               {"c", db::DataType::kInt64},
                                               {"s", db::DataType::kFloat64}});
  const std::vector<db::Table> parts = {
      IntTable(partial, {{1, 2, 20}, {2, 1, 7}}),
      IntTable(partial, {{3, 4, 40}, {1, 3, 9}})};
  const std::vector<MergeOutputSpec> outputs = {
      {MergeOutputSpec::Kind::kGroupKey, 0, -1},
      {MergeOutputSpec::Kind::kCount, 1, -1},
      {MergeOutputSpec::Kind::kSum, 2, -1}};
  auto merged = MergeAggregatePartials(out, parts, /*num_keys=*/1, outputs);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(Column(*merged, 0), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(Column(*merged, 1), (std::vector<int64_t>{5, 1, 4}));
  ASSERT_EQ(merged->num_rows(), 3);
  EXPECT_DOUBLE_EQ(merged->GetRow(0)[2].AsDouble().ValueOr(0), 29.0);
  EXPECT_DOUBLE_EQ(merged->GetRow(1)[2].AsDouble().ValueOr(0), 7.0);
  EXPECT_DOUBLE_EQ(merged->GetRow(2)[2].AsDouble().ValueOr(0), 40.0);
}

TEST(ClusterMerge, NullAndStringKeysMergeAcrossShards) {
  // Two key columns, NULLs included: a NULL key part groups with NULL
  // (hash aggregation's rule) and sorts first.
  const db::TableSchema partial({{"s", db::DataType::kString},
                                 {"g", db::DataType::kInt64},
                                 {"c", db::DataType::kInt64}});
  using db::Value;
  auto table = [&](const std::vector<std::vector<Value>>& rows) {
    db::Table t{partial};
    for (const auto& row : rows) EXPECT_TRUE(t.AppendRow(row).ok());
    return t;
  };
  const std::vector<db::Table> parts = {
      table({{Value::String("b"), Value::Null(), Value::Int(1)},
             {Value::String("a"), Value::Int(2), Value::Int(2)}}),
      table({{Value::String("a"), Value::Int(2), Value::Int(3)},
             {Value::String("b"), Value::Null(), Value::Int(4)},
             {Value::Null(), Value::Int(2), Value::Int(5)}})};
  const std::vector<MergeOutputSpec> outputs = {
      {MergeOutputSpec::Kind::kGroupKey, 0, -1},
      {MergeOutputSpec::Kind::kGroupKey, 1, -1},
      {MergeOutputSpec::Kind::kCount, 2, -1}};
  auto merged = MergeAggregatePartials(partial, parts, /*num_keys=*/2,
                                       outputs);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->ToString(),
            "s | g | c\nNULL | 2 | 5\na | 2 | 5\nb | NULL | 5\n");
}

TEST(ClusterMerge, AvgRewritesFromSumAndCount) {
  // AVG ships as SUM+COUNT partials; the coordinator divides. 10+20 over
  // 3+1 calls = 7.5 — a value neither shard's local average equals (the
  // classic distributed-AVG bug this rewrite exists to avoid).
  const db::TableSchema partial = db::TableSchema(
      {{"s", db::DataType::kFloat64}, {"c", db::DataType::kInt64}});
  const db::TableSchema out = db::TableSchema({{"a", db::DataType::kFloat64}});
  db::Table p0{partial}, p1{partial};
  ASSERT_TRUE(p0.AppendRow({db::Value::Float(10.0), db::Value::Int(3)}).ok());
  ASSERT_TRUE(p1.AppendRow({db::Value::Float(20.0), db::Value::Int(1)}).ok());
  std::vector<db::Table> parts;
  parts.push_back(std::move(p0));
  parts.push_back(std::move(p1));
  const std::vector<MergeOutputSpec> outputs = {
      {MergeOutputSpec::Kind::kAvg, 0, 1}};
  auto merged = MergeAggregatePartials(out, parts, /*num_keys=*/0, outputs);
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->num_rows(), 1);
  EXPECT_DOUBLE_EQ(merged->GetRow(0)[0].AsDouble().ValueOr(0), 7.5);
}

TEST(ClusterMerge, AvgOfZeroRowsIsNull) {
  // Empty-table shards report count 0 / NULL sum; the merged AVG is NULL,
  // exactly like a single-node AVG over zero rows.
  const db::TableSchema partial = db::TableSchema(
      {{"s", db::DataType::kFloat64}, {"c", db::DataType::kInt64}});
  const db::TableSchema out = db::TableSchema({{"a", db::DataType::kFloat64}});
  db::Table p0{partial};
  ASSERT_TRUE(p0.AppendRow({db::Value::Null(), db::Value::Int(0)}).ok());
  std::vector<db::Table> parts;
  parts.push_back(std::move(p0));
  auto merged = MergeAggregatePartials(
      out, parts, 0, {{MergeOutputSpec::Kind::kAvg, 0, 1}});
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->num_rows(), 1);
  EXPECT_TRUE(merged->GetRow(0)[0].is_null());
}

TEST(ClusterMerge, SumIgnoresNullPartialsButAllNullStaysNull) {
  const db::TableSchema partial = IntSchema({"s"});
  const db::TableSchema out = db::TableSchema({{"s", db::DataType::kFloat64}});
  db::Table some{partial}, none{partial};
  ASSERT_TRUE(some.AppendRow({db::Value::Int(11)}).ok());
  ASSERT_TRUE(none.AppendRow({db::Value::Null()}).ok());
  {
    std::vector<db::Table> parts;
    parts.push_back(some);
    parts.push_back(none);
    auto merged = MergeAggregatePartials(
        out, parts, 0, {{MergeOutputSpec::Kind::kSum, 0, -1}});
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_DOUBLE_EQ(merged->GetRow(0)[0].AsDouble().ValueOr(-1), 11.0);
  }
  {
    std::vector<db::Table> parts;
    parts.push_back(none);
    parts.push_back(none);
    auto merged = MergeAggregatePartials(
        out, parts, 0, {{MergeOutputSpec::Kind::kSum, 0, -1}});
    ASSERT_TRUE(merged.ok());
    EXPECT_TRUE(merged->GetRow(0)[0].is_null());
  }
}

TEST(ClusterMerge, SortAndLimitOrdersGroups) {
  const db::TableSchema schema = IntSchema({"g", "n"});
  auto sorted = SortAndLimit(
      IntTable(schema, {{3, 1}, {1, 2}, {2, 3}}), {{1, false}}, 2);
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(Column(*sorted, 0), (std::vector<int64_t>{2, 1}));
}

}  // namespace
}  // namespace dl2sql::cluster
