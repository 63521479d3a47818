/// \file join_kernel_test.cc
/// \brief The flat hash table (KeyHashTable), the single hash-join
/// build/probe path, and the fused join→aggregate pass.
///
/// The differential half runs every statement the DL2SQL converter emits for
/// a student CNN and a small ResNet — each pre-join strategy, batched and
/// not — and, wherever a plan aggregates directly over a join, compares the
/// fused result byte for byte with an oracle that first materializes that
/// join into a temp table and aggregates the table. It does so at 1 and 4
/// threads, with the vector path on and off, in memory and paged, and also
/// requires every configuration's pipeline output to match the first one's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "accel/device.h"
#include "common/metrics.h"
#include "db/database.h"
#include "db/exec/hash_table.h"
#include "db/exec/vector_aggregate.h"
#include "db/exec/vector_kernels.h"
#include "db/sql/parser.h"
#include "db/storage/storage_engine.h"
#include "dl2sql/converter.h"
#include "nn/builders.h"

namespace dl2sql::db {
namespace {

// ------------------------------------------------------------ flat table ----

KeyHashTable JoinTableOver(const Column& key) {
  const std::vector<const Column*> keys = {&key};
  std::vector<uint64_t> hashes(static_cast<size_t>(key.size()));
  std::vector<uint8_t> nulls(static_cast<size_t>(key.size()));
  vec::HashKeyRange(keys, 0, key.size(), hashes.data());
  vec::KeyNullRange(keys, 0, key.size(), nulls.data());
  return KeyHashTable::ForJoin({key}, hashes.data(), nulls.data());
}

/// vec::HashKeyRange's hash of row `row` of `keys`.
uint64_t HashRow(const std::vector<const Column*>& keys, int64_t row) {
  uint64_t hash = 0;
  vec::HashKeyRange(keys, row, row + 1, &hash);
  return hash;
}

/// Build rows matching probe row `row` of `probe`, in emission order.
std::vector<int64_t> Matches(const KeyHashTable& table, const Column& probe,
                             int64_t row) {
  const std::vector<const Column*> keys = {&probe};
  const KeyHashTable::KeyId k = table.Find(keys, row, HashRow(keys, row));
  if (k == KeyHashTable::kAbsent) return {};
  return std::vector<int64_t>(table.rows_begin(k), table.rows_end(k));
}

Column IntsWithNull(std::vector<Value> values) {
  Column c(DataType::kInt64);
  for (auto& v : values) EXPECT_TRUE(c.Append(v).ok());
  return c;
}

TEST(KeyHashTableTest, DuplicateBuildKeysEmitInBuildRowOrder) {
  const Column build = Column::Ints({5, 3, 5, 7, 5, 3});
  const KeyHashTable table = JoinTableOver(build);
  EXPECT_EQ(table.num_keys(), 3);
  const Column probe = Column::Ints({5, 3, 9});
  EXPECT_EQ(Matches(table, probe, 0), (std::vector<int64_t>{0, 2, 4}));
  EXPECT_EQ(Matches(table, probe, 1), (std::vector<int64_t>{1, 5}));
  EXPECT_TRUE(Matches(table, probe, 2).empty());
}

TEST(KeyHashTableTest, NullKeysNeverMatch) {
  const Column build =
      IntsWithNull({Value::Int(1), Value::Null(), Value::Int(1)});
  const KeyHashTable table = JoinTableOver(build);
  EXPECT_EQ(table.num_keys(), 1);  // the NULL row is not listed at all
  const Column probe = IntsWithNull({Value::Null(), Value::Int(1)});
  EXPECT_TRUE(Matches(table, probe, 0).empty());
  EXPECT_EQ(Matches(table, probe, 1), (std::vector<int64_t>{0, 2}));
}

TEST(KeyHashTableTest, JoinByteSizeBoundCoversEveryJoinTable) {
  // A build side's admission asks for this bound before the table exists:
  // it must cover any join table over as many rows, and is exact when every
  // row holds a distinct key.
  for (const int64_t n : {1, 15, 1000, 4097}) {
    std::vector<int64_t> distinct(static_cast<size_t>(n));
    std::vector<int64_t> repeated(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      distinct[static_cast<size_t>(i)] = i;
      repeated[static_cast<size_t>(i)] = i % 7;
    }
    const int64_t bound = KeyHashTable::JoinByteSizeBound(n);
    EXPECT_EQ(JoinTableOver(Column::Ints(distinct)).ByteSize(), bound) << n;
    EXPECT_LE(JoinTableOver(Column::Ints(repeated)).ByteSize(), bound) << n;
  }
}

TEST(KeyHashTableTest, IntKeyMatchesIntegralFloat) {
  const KeyHashTable table = JoinTableOver(Column::Ints({3, 4}));
  const Column probe = Column::Floats({3.0, 3.5, 4.0});
  EXPECT_EQ(Matches(table, probe, 0), (std::vector<int64_t>{0}));
  EXPECT_TRUE(Matches(table, probe, 1).empty());
  EXPECT_EQ(Matches(table, probe, 2), (std::vector<int64_t>{1}));
}

TEST(KeyHashTableTest, GroupingCopiesKeysInFirstSeenOrderAndGrowsPastBuckets) {
  KeyHashTable groups = KeyHashTable::ForGroups({DataType::kInt64});
  const Column keys = IntsWithNull(
      {Value::Int(9), Value::Null(), Value::Int(9), Value::Null()});
  const std::vector<const Column*> kptrs = {&keys};
  std::vector<KeyHashTable::KeyId> ids;
  for (int64_t r = 0; r < keys.size(); ++r) {
    ids.push_back(groups.FindOrInsert(kptrs, r, HashRow(kptrs, r)));
  }
  // NULL keys group together (GROUP BY semantics).
  EXPECT_EQ(ids, (std::vector<KeyHashTable::KeyId>{0, 1, 0, 1}));
  EXPECT_EQ(groups.key_columns()[0].GetValue(0).ToString(), "9");
  EXPECT_TRUE(groups.key_columns()[0].GetValue(1).is_null());

  // Enough distinct keys to force several rehashes.
  std::vector<int64_t> many;
  for (int64_t i = 0; i < 5000; ++i) many.push_back((i * 7919) % 5000);
  const Column wide = Column::Ints(many);
  const std::vector<const Column*> wptrs = {&wide};
  KeyHashTable big = KeyHashTable::ForGroups({DataType::kInt64});
  for (int64_t r = 0; r < wide.size(); ++r) {
    ASSERT_EQ(big.FindOrInsert(wptrs, r, HashRow(wptrs, r)), r);
  }
  for (int64_t r = 0; r < wide.size(); ++r) {
    ASSERT_EQ(big.Find(wptrs, r, HashRow(wptrs, r)), r);
  }
}

// --------------------------------------------------------- SQL-level join ----

void AddTable(Database* db, const std::string& name,
              const std::vector<std::vector<Value>>& rows,
              TableSchema schema) {
  Table t{std::move(schema)};
  for (const auto& row : rows) ASSERT_TRUE(t.AppendRow(row).ok());
  ASSERT_TRUE(db->RegisterTable(name, std::move(t)).ok());
}

std::string Render(Database* db, const std::string& sql) {
  auto r = db->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  return r.ok() ? r->ToString(r->num_rows()) : "";
}

class JoinSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSchema kv({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
    AddTable(&db_, "probe",
             {{Value::Int(1), Value::Int(10)},
              {Value::Null(), Value::Int(20)},
              {Value::Int(2), Value::Int(30)},
              {Value::Int(1), Value::Int(40)}},
             kv);
    AddTable(&db_, "build",
             {{Value::Int(1), Value::Int(100)},
              {Value::Int(2), Value::Int(200)},
              {Value::Null(), Value::Int(300)},
              {Value::Int(1), Value::Int(400)}},
             kv);
    AddTable(&db_, "fbuild", {{Value::Float(2.0), Value::Int(7)}},
             TableSchema({{"k", DataType::kFloat64}, {"v", DataType::kInt64}}));
    AddTable(&db_, "empty", {}, kv);
  }
  Database db_;
};

TEST_F(JoinSqlTest, PairsComeOutProbeMajorThenBuildRowOrder) {
  // Equal-sized inputs: the optimizer builds on the right side.
  auto r = db_.Execute(
      "SELECT P.v AS pv, B.v AS bv FROM probe P INNER JOIN build B "
      "ON P.k = B.k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<int64_t> pv = {10, 10, 30, 40, 40};
  const std::vector<int64_t> bv = {100, 400, 200, 100, 400};
  EXPECT_EQ(r->column(0).ints(), pv);  // NULL keys join nothing
  EXPECT_EQ(r->column(1).ints(), bv);
}

TEST_F(JoinSqlTest, IntJoinsIntegralFloatAndFusedAggregateAgrees) {
  auto r = db_.Execute(
      "SELECT P.v AS pv, B.v AS bv FROM probe P INNER JOIN fbuild B "
      "ON P.k = B.k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1);
  EXPECT_EQ(r->column(0).ints()[0], 30);
  auto agg = db_.Execute(
      "SELECT B.v AS g, sum(P.v * 2) AS s FROM probe P INNER JOIN fbuild B "
      "ON P.k = B.k GROUP BY B.v");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  ASSERT_EQ(agg->num_rows(), 1);
  EXPECT_EQ(agg->column(1).GetValue(0).ToString(), "60");
}

TEST_F(JoinSqlTest, EmptySidesJoinNothingAndAggregateLikeUnfused) {
  for (const char* sql :
       {"SELECT P.v FROM probe P INNER JOIN empty E ON P.k = E.k",
        "SELECT E.v FROM empty E INNER JOIN build B ON E.k = B.k"}) {
    auto r = db_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    EXPECT_EQ(r->num_rows(), 0) << sql;
  }
  // Fused over no pairs: a global aggregate still yields its one row and a
  // grouped one yields none, with the unfused column types.
  auto global = db_.Execute(
      "SELECT count(*) AS c, sum(P.v) AS s FROM probe P INNER JOIN empty E "
      "ON P.k = E.k");
  ASSERT_TRUE(global.ok()) << global.status().ToString();
  ASSERT_EQ(global->num_rows(), 1);
  EXPECT_EQ(global->column(0).GetValue(0).ToString(), "0");
  EXPECT_TRUE(global->column(1).GetValue(0).is_null());
  auto grouped = db_.Execute(
      "SELECT E.k AS k, sum(P.v) AS s FROM empty E INNER JOIN probe P "
      "ON E.k = P.k GROUP BY E.k");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_EQ(grouped->num_rows(), 0);
  EXPECT_EQ(grouped->schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(grouped->schema().field(1).type, DataType::kFloat64);
}

TEST_F(JoinSqlTest, PrebuiltHashIndexIsReused) {
  // A probe side larger than `build`, so the optimizer builds on the
  // unfiltered scan of `build` — the shape that may use its index.
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 24; ++i) {
    rows.push_back({Value::Int(i % 3), Value::Int(i)});
  }
  TableSchema kv({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  AddTable(&db_, "many", rows, kv);
  const std::vector<std::string> queries = {
      "SELECT P.v AS pv, B.v AS bv FROM many P INNER JOIN build B "
      "ON P.k = B.k",
      "SELECT B.k AS k, sum(P.v * B.v) AS s, count(*) AS c FROM many P "
      "INNER JOIN build B ON P.k = B.k GROUP BY B.k"};
  std::vector<std::string> unindexed;
  for (const auto& q : queries) unindexed.push_back(Render(&db_, q));

  ASSERT_TRUE(db_.catalog().CreateIndex("build", "k").ok());
  const auto index = db_.catalog().GetIndex("build", "k");
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->num_keys(), 2u);  // 1 and 2; the NULL row is left out
  const int64_t before = db_.index_joins_executed();
  for (int rep = 0; rep < 2; ++rep) {
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(Render(&db_, queries[q]), unindexed[q]) << queries[q];
    }
  }
  EXPECT_EQ(db_.index_joins_executed() - before, 4);
  EXPECT_EQ(db_.catalog().GetIndex("build", "k"), index);  // not rebuilt
}

TEST_F(JoinSqlTest, ExplainAnalyzeMarksTheFusedJoin) {
  db_.set_vectorized(true);  // explicit: survives a DL2SQL_VECTOR=OFF CI leg
  auto text = db_.ExplainAnalyze(
      "SELECT B.k AS k, sum(P.v * B.v) AS s FROM probe P INNER JOIN build B "
      "ON P.k = B.k GROUP BY B.k");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("[fused into parent Aggregate]"), std::string::npos)
      << *text;
  // An aggregate whose argument calls a function stays unfused.
  auto plain = db_.ExplainAnalyze(
      "SELECT B.k AS k, sum(abs(P.v)) AS s FROM probe P INNER JOIN build B "
      "ON P.k = B.k GROUP BY B.k");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->find("fused"), std::string::npos) << *plain;
}

// ------------------------------------------------- differential: DL2SQL ----

struct Config {
  int threads;
  bool vectorized;
  bool paged;
  std::string Name() const {
    return std::to_string(threads) + "t/" + (vectorized ? "vec" : "row") +
           "/" + (paged ? "paged" : "mem");
  }
};

void ExpectSameBytes(const Table& a, const Table& b, const std::string& what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << what;
  for (int c = 0; c < a.num_columns(); ++c) {
    const Column& x = a.column(c);
    const Column& y = b.column(c);
    ASSERT_EQ(x.type(), y.type()) << what << " col " << c;
    ASSERT_EQ(x.validity(), y.validity()) << what << " col " << c;
    switch (x.type()) {
      case DataType::kInt64:
        ASSERT_EQ(x.ints(), y.ints()) << what << " col " << c;
        break;
      case DataType::kFloat64:
        // An empty column's data() may be null, which memcmp must not get.
        ASSERT_TRUE(x.floats().empty() ||
                    std::memcmp(x.floats().data(), y.floats().data(),
                                x.floats().size() * sizeof(double)) == 0)
            << what << " col " << c;
        break;
      case DataType::kBool:
        ASSERT_EQ(x.bools(), y.bools()) << what << " col " << c;
        break;
      case DataType::kString:
      case DataType::kBlob:
        ASSERT_EQ(x.strings(), y.strings()) << what << " col " << c;
        break;
      case DataType::kNull:
        break;
    }
  }
}

/// Aggregate nodes sitting directly on a join, in `plan`'s subtree.
void FindAggOverJoin(const PlanPtr& plan, std::vector<PlanNode*>* out) {
  if (plan->kind == PlanKind::kAggregate &&
      plan->children[0]->kind == PlanKind::kJoin) {
    out->push_back(plan.get());
  }
  for (const auto& c : plan->children) FindAggOverJoin(c, out);
}

/// Runs one generated statement. When its plan aggregates over a join, the
/// result as executed is first compared with the oracle's: the same plan
/// with each such join materialized into a temp table beforehand.
void RunChecked(Database* db, const std::string& sql, int* sites) {
  auto parsed = sql::ParseStatement(sql);
  ASSERT_TRUE(parsed.ok()) << sql;
  std::shared_ptr<SelectStmt> select;
  if (auto* s = std::get_if<std::shared_ptr<SelectStmt>>(&*parsed)) {
    select = *s;
  } else if (auto* c = std::get_if<CreateTableStmt>(&*parsed)) {
    select = c->as_select;
    ASSERT_TRUE(db->Execute("DROP TABLE IF EXISTS " + c->name).ok());
  }
  if (select != nullptr) {
    auto plan = db->PlanQuery(*select);
    ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    std::vector<PlanNode*> aggs;
    FindAggOverJoin(*plan, &aggs);
    if (!aggs.empty()) {
      auto fused = db->ExecutePlan(**plan);
      ASSERT_TRUE(fused.ok()) << sql << ": " << fused.status().ToString();
      std::vector<PlanPtr> joins;
      for (size_t i = 0; i < aggs.size(); ++i) {
        PlanPtr join = aggs[i]->children[0];
        auto materialized = db->ExecutePlan(*join);
        ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
        const std::string name = "oracle_join_" + std::to_string(i);
        ASSERT_TRUE(
            db->RegisterTable(name, std::move(*materialized), true).ok());
        aggs[i]->children[0] = MakeScan(name, "", join->output_schema);
        joins.push_back(std::move(join));
      }
      auto oracle = db->ExecutePlan(**plan);
      ASSERT_TRUE(oracle.ok()) << sql << ": " << oracle.status().ToString();
      ExpectSameBytes(*fused, *oracle, sql);
      for (size_t i = 0; i < aggs.size(); ++i) {
        aggs[i]->children[0] = joins[i];
        ASSERT_TRUE(
            db->Execute("DROP TABLE oracle_join_" + std::to_string(i)).ok());
      }
      *sites += static_cast<int>(aggs.size());
    }
  }
  auto r = db->Execute(sql);
  ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
}

// ----------------------------------------- fused grouping paths vs oracle ----

/// Registers `fact` (210 rows) and `dim` (14 rows), joined on k, for the
/// grouping-path cases: g holds negative keys, big spans far more values
/// than the inputs have rows, f is FLOAT, n is INT with NULLs, b is BOOL. Storage is
/// pinned in memory (the fused pass takes resident inputs only), so the
/// cases hold in a paged-storage CI leg too.
void AddFactAndDim(Database* db) {
  ASSERT_TRUE(db->set_storage_mode(StorageMode::kInMemory).ok());
  std::vector<std::vector<Value>> fact, dim;
  for (int64_t i = 0; i < 210; ++i) {
    fact.push_back({Value::Int(i % 7), Value::Int(-(i % 5) - 3),
                    Value::Int(i % 4), Value::Int(i * 1000003),
                    Value::Float(static_cast<double>(i % 3) * 0.5),
                    i % 6 == 0 ? Value::Null() : Value::Int(i % 3),
                    Value::Float(static_cast<double>(i) * 0.25 - 10.0),
                    Value::Bool(i % 3 == 0)});
  }
  for (int64_t j = 0; j < 14; ++j) {
    dim.push_back({Value::Int(j % 7), Value::Int(j - 5),
                   Value::Float(static_cast<double>(j) * 0.5)});
  }
  AddTable(db, "fact", fact,
           TableSchema({{"k", DataType::kInt64},
                        {"g", DataType::kInt64},
                        {"h", DataType::kInt64},
                        {"big", DataType::kInt64},
                        {"f", DataType::kFloat64},
                        {"n", DataType::kInt64},
                        {"v", DataType::kFloat64},
                        {"b", DataType::kBool}}));
  AddTable(db, "dim", dim,
           TableSchema({{"k", DataType::kInt64},
                        {"w", DataType::kInt64},
                        {"wf", DataType::kFloat64}}));
}

/// The `[dense slots=N]` mark of `sql`'s EXPLAIN ANALYZE, or "" when the
/// fused aggregate grouped by hash.
std::string DenseMark(Database* db, const std::string& sql) {
  auto text = db->ExplainAnalyze(sql);
  EXPECT_TRUE(text.ok()) << sql << ": " << text.status().ToString();
  if (!text.ok()) return "";
  EXPECT_NE(text->find("[fused into parent Aggregate]"), std::string::npos)
      << *text;
  const size_t at = text->find("[dense slots=");
  if (at == std::string::npos) return "";
  return text->substr(at, text->find(']', at) - at + 1);
}

TEST_F(JoinSqlTest, DenseSlotsGroupNegativeAndComputedKeysLikeTheOracle) {
  db_.set_vectorized(true);  // explicit: survives a DL2SQL_VECTOR=OFF CI leg
  AddFactAndDim(&db_);
  // g spans [-7, -3] (5 values) and w spans [-5, 8] (14): 70 slots, within
  // two per input row of the 224 join-input rows.
  const std::string negative =
      "SELECT F.g AS g, D.w AS w, sum(F.v * D.wf) AS s FROM fact F "
      "INNER JOIN dim D ON F.k = D.k GROUP BY F.g, D.w";
  // h - w spans [0 - 8, 3 + 5]: 17 slots by interval arithmetic.
  const std::string subtraction =
      "SELECT F.h - D.w AS d, count(*) AS c, sum(D.wf) AS s FROM fact F "
      "INNER JOIN dim D ON F.k = D.k GROUP BY F.h - D.w";
  const std::string aggregates =
      "SELECT F.g AS g, count(*) AS c, min(F.v) AS lo, max(D.w) AS hi, "
      "avg(F.v + D.wf) AS m, min(F.h * 2) AS hl FROM fact F INNER JOIN dim D "
      "ON F.k = D.k GROUP BY F.g";
  EXPECT_EQ(DenseMark(&db_, negative), "[dense slots=70]");
  EXPECT_EQ(DenseMark(&db_, subtraction), "[dense slots=17]");
  EXPECT_EQ(DenseMark(&db_, aggregates), "[dense slots=5]");
  int sites = 0;
  for (const auto& sql : {negative, subtraction, aggregates}) {
    RunChecked(&db_, sql, &sites);
  }
  EXPECT_EQ(sites, 3);
}

TEST_F(JoinSqlTest, HashedGroupingCoversWideFloatAndNullKeysLikeTheOracle) {
  db_.set_vectorized(true);
  AddFactAndDim(&db_);
  const std::vector<std::string> queries = {
      // big spans ~2e8 values over 224 input rows: over the slot budget.
      "SELECT F.big AS b, sum(D.wf) AS s, max(F.v) AS hi FROM fact F "
      "INNER JOIN dim D ON F.k = D.k GROUP BY F.big",
      "SELECT F.f AS f, count(*) AS c, avg(D.w) AS m FROM fact F "
      "INNER JOIN dim D ON F.k = D.k GROUP BY F.f",
      "SELECT F.n AS n, D.w AS w, min(F.v) AS lo, count(*) AS c FROM fact F "
      "INNER JOIN dim D ON F.k = D.k GROUP BY F.n, D.w"};
  int sites = 0;
  for (const auto& sql : queries) {
    EXPECT_EQ(DenseMark(&db_, sql), "") << sql;
    RunChecked(&db_, sql, &sites);
  }
  EXPECT_EQ(sites, 3);
}

// Bare group keys, bare aggregate arguments and sum-kernel products of two
// bare columns read the join inputs through the batch's row ids; only
// compiled programs (and hashed keys) read gathered columns.
TEST_F(JoinSqlTest, RowIdOperandsMatchTheOracle) {
  db_.set_vectorized(true);  // explicit: survives a DL2SQL_VECTOR=OFF CI leg
  AddFactAndDim(&db_);
  const std::string from = " FROM fact F INNER JOIN dim D ON F.k = D.k";
  const std::vector<std::pair<std::string, std::string>> cases = {
      // Bare keys from either side: w spans 14 values and h 4.
      {"SELECT D.w AS w, F.h AS h, sum(F.v) AS s, count(*) AS c" + from +
           " GROUP BY D.w, F.h",
       "[dense slots=56]"},
      {"SELECT F.big AS b, D.w AS w, sum(D.wf) AS s" + from +
           " GROUP BY F.big, D.w",
       ""},
      // A key program mixed with a bare key: h * 3 + w spans [-5, 17].
      {"SELECT F.h * 3 + D.w AS p, F.g AS g, max(F.v) AS hi" + from +
           " GROUP BY F.h * 3 + D.w, F.g",
       "[dense slots=115]"},
      {"SELECT F.n AS n, D.w * 2 AS w2, sum(F.v * D.wf) AS s" + from +
           " GROUP BY F.n, D.w * 2",
       ""},
      // Products: both factors on one side, one on each side, INT64 x
      // INT64 and INT64 x FLOAT64 in either order.
      {"SELECT F.g AS g, sum(F.v * F.f) AS one_side, "
       "sum(F.v * D.wf) AS two_sides, sum(F.h * D.w) AS ints, "
       "sum(D.w * F.v) AS int_float, avg(F.h * D.wf) AS m" +
           from + " GROUP BY F.g",
       "[dense slots=5]"},
      // COUNT(*), COUNT of a bool, AVG, MIN/MAX, and STDDEV over products
      // (its sum of squares), dense and hashed.
      {"SELECT D.w AS w, count(*) AS c, count(F.b) AS cb, avg(F.v) AS m, "
       "min(F.h) AS lo, max(D.wf) AS hi, stddevSamp(F.v * D.wf) AS sd, "
       "stddevSamp(F.h * D.w) AS sdi" +
           from + " GROUP BY D.w",
       "[dense slots=14]"},
      {"SELECT F.f AS f, count(*) AS c, avg(F.v * D.wf) AS m, "
       "min(D.w) AS lo, stddevSamp(F.v * D.wf) AS sd" +
           from + " GROUP BY F.f",
       ""},
      {"SELECT sum(F.v * D.wf) AS s, count(*) AS c, max(F.h) AS hi" + from,
       ""},
      // An empty join, grouped and global.
      {"SELECT F.g AS g, sum(F.v * E.v) AS s FROM fact F INNER JOIN empty E "
       "ON F.k = E.k GROUP BY F.g",
       "[dense slots=5]"},
      {"SELECT sum(F.v * E.v) AS s, count(*) AS c FROM fact F "
       "INNER JOIN empty E ON F.k = E.k",
       ""},
  };
  int sites = 0;
  for (const auto& [sql, mark] : cases) {
    EXPECT_EQ(DenseMark(&db_, sql), mark) << sql;
    RunChecked(&db_, sql, &sites);
  }
  EXPECT_EQ(sites, static_cast<int>(cases.size()));
}

// A NULL-bearing or non-numeric bare argument fuses too: the generic state
// reads it through the row ids, beside the typed kernels of the same pass.
TEST_F(JoinSqlTest, GenericArgumentsFuseLikeTheOracle) {
  db_.set_vectorized(true);  // explicit: survives a DL2SQL_VECTOR=OFF CI leg
  AddFactAndDim(&db_);
  std::vector<std::vector<Value>> tags;
  for (int64_t j = 0; j < 21; ++j) {
    tags.push_back({Value::Int(j % 7),
                    j % 4 == 0 ? Value::Null()
                               : Value::String("t" + std::to_string(j * 5 % 11))});
  }
  AddTable(&db_, "tag", tags,
           TableSchema({{"k", DataType::kInt64}, {"name", DataType::kString}}));
  const std::string from = " FROM fact F INNER JOIN dim D ON F.k = D.k";
  const std::string tagged = " FROM fact F INNER JOIN tag T ON F.k = T.k";
  const std::vector<std::pair<std::string, std::string>> cases = {
      // n holds NULLs: every function over it, dense and hashed.
      {"SELECT D.w AS w, sum(F.n) AS s, count(F.n) AS c, min(F.n) AS lo, "
       "max(F.n) AS hi, avg(F.n) AS m, stddevSamp(F.n) AS sd, "
       "count(*) AS cs, sum(F.v) AS sv" +
           from + " GROUP BY D.w",
       "[dense slots=14]"},
      {"SELECT F.f AS f, avg(F.n) AS m, max(D.wf) AS hi" + from +
           " GROUP BY F.f",
       ""},
      // String MIN/MAX over a NULL-bearing column beside typed aggregates,
      // grouped and global.
      {"SELECT F.g AS g, min(T.name) AS lo, max(T.name) AS hi, "
       "count(T.name) AS c, sum(F.v) AS s" +
           tagged + " GROUP BY F.g",
       "[dense slots=5]"},
      {"SELECT min(T.name) AS lo, max(F.n) AS hi, count(F.b) AS cb" + tagged,
       ""},
  };
  int sites = 0;
  for (const auto& [sql, mark] : cases) {
    EXPECT_EQ(DenseMark(&db_, sql), mark) << sql;
    RunChecked(&db_, sql, &sites);
  }
  EXPECT_EQ(sites, static_cast<int>(cases.size()));
}

TEST_F(JoinSqlTest, DenseGroupsComeOutInFirstSeenOrder) {
  db_.set_vectorized(true);
  ASSERT_TRUE(db_.set_storage_mode(StorageMode::kInMemory).ok());
  TableSchema kx({{"k", DataType::kInt64}, {"x", DataType::kInt64}});
  AddTable(&db_, "ord_p",
           {{Value::Int(1), Value::Int(3)},
            {Value::Int(2), Value::Int(1)},
            {Value::Int(1), Value::Int(2)}},
           kx);
  AddTable(&db_, "ord_b",
           {{Value::Int(1), Value::Int(5)}, {Value::Int(2), Value::Int(7)}},
           kx);
  const std::string sql =
      "SELECT P.x AS x, sum(P.x * B.x) AS s FROM ord_p P INNER JOIN ord_b B "
      "ON P.k = B.k GROUP BY P.x";
  EXPECT_EQ(DenseMark(&db_, sql), "[dense slots=3]");
  int sites = 0;
  RunChecked(&db_, sql, &sites);
  EXPECT_EQ(sites, 1);
  // Whichever side probes, x = 3 pairs first: groups are not in slot order.
  auto r = db_.Execute(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 3);
  const std::vector<int64_t>& x = r->column(0).ints();
  EXPECT_EQ(x[0], 3);
  EXPECT_FALSE(std::is_sorted(x.begin(), x.end()));
  EXPECT_EQ(r->column(1).GetValue(0).ToString(), "15");
}

TEST(DenseSlotsTest, BudgetAndRefusedChargeKeepGroupingHashed) {
  // Forced on: a DL2SQL_MEM_TRACKER=OFF CI leg would admit every charge.
  const bool prior = MemTracker::Enabled();
  MemTracker::SetEnabled(true);
  PlanNode node;  // no aggregates: Compile reads only the key types here
  node.kind = PlanKind::kAggregate;
  vec::BatchAggregator agg;
  ASSERT_TRUE(agg.Compile(node, {DataType::kInt64}, {}, /*vectorized=*/true));
  const std::vector<std::pair<int64_t, int64_t>> bounds = {{-2, 3}};
  // Six slots of 4 bytes: a 16-byte limit refuses them, charging nothing.
  MemTracker tight("tight", nullptr, 16);
  ScopedMemCharge refused(&tight);
  EXPECT_EQ(agg.UseDenseSlots(bounds, 3, &refused), 0);
  EXPECT_EQ(refused.charged(), 0);
  // Six slots over two input rows exceed two slots a row.
  MemTracker roomy("roomy");
  ScopedMemCharge admitted(&roomy);
  EXPECT_EQ(agg.UseDenseSlots(bounds, 2, &admitted), 0);
  EXPECT_EQ(agg.UseDenseSlots(bounds, 3, &admitted), 6);
  EXPECT_EQ(admitted.charged(), 24);
  MemTracker::SetEnabled(prior);
}

struct PipelineCase {
  std::string model;
  core::PreJoinStrategy prejoin;
  bool batched;
  std::string Name() const {
    return model + "/prejoin" + std::to_string(static_cast<int>(prejoin)) +
           (batched ? "/batched" : "");
  }
};

nn::Model MakeModel(const std::string& name) {
  nn::BuilderOptions b;
  b.input_size = 8;
  b.base_channels = 2;
  b.num_classes = 3;
  if (name == "student") return nn::BuildStudentCnn(b);
  auto resnet = nn::BuildResNet(4, b);
  DL2SQL_CHECK(resnet.ok()) << resnet.status().ToString();
  return std::move(*resnet);
}

/// Converts and runs one pipeline under `cfg`, checking every statement
/// against the oracle; returns the output table.
Table RunPipeline(const PipelineCase& pc, const Config& cfg, int* sites) {
  Database db;
  db.set_vectorized(cfg.vectorized);
  auto device = std::make_shared<Device>([&] {
    DeviceProfile p = Device::ServerCpuProfile();
    p.name = "join-kernel-" + std::to_string(cfg.threads);
    p.num_threads = cfg.threads;
    return p;
  }());
  db.set_exec_options({device.get(), /*morsel_size=*/512});
  if (cfg.paged) {
    storage::StorageOptions opts;
    opts.pool_bytes = 2u << 20;
    opts.page_min_bytes = 4096;  // page every non-trivial intermediate
    DL2SQL_CHECK(db.set_storage_mode(StorageMode::kPaged, opts).ok());
  }
  core::ConvertOptions options;
  options.prejoin = pc.prejoin;
  options.batched = pc.batched;
  auto converted = core::ConvertModel(MakeModel(pc.model), options, &db);
  DL2SQL_CHECK(converted.ok()) << converted.status().ToString();

  // Input rows as the pipeline runner loads them: two images when batched.
  Rng rng(7);
  const int images = pc.batched ? 2 : 1;
  TableSchema schema = pc.batched
                           ? TableSchema({{"BatchID", DataType::kInt64},
                                          {"TupleID", DataType::kInt64},
                                          {"Value", DataType::kFloat64}})
                           : TableSchema({{"TupleID", DataType::kInt64},
                                          {"Value", DataType::kFloat64}});
  Table input{schema};
  for (int b = 0; b < images; ++b) {
    const Tensor t = Tensor::Random(converted->input_shape, &rng, 1.0f);
    for (int64_t i = 0; i < t.NumElements(); ++i) {
      std::vector<Value> row;
      if (pc.batched) row.push_back(Value::Int(b));
      row.push_back(Value::Int(i));
      row.push_back(Value::Float(static_cast<double>(t.at(i))));
      DL2SQL_CHECK(input.AppendRow(row).ok());
    }
  }
  DL2SQL_CHECK(
      db.RegisterTable(converted->input_table, std::move(input), true).ok());
  for (const auto& op : converted->ops) {
    for (const auto& sql : op.runtime_sql) {
      RunChecked(&db, sql, sites);
      if (::testing::Test::HasFatalFailure()) return Table();
    }
  }
  auto out = db.Execute("SELECT * FROM " + converted->output_table);
  DL2SQL_CHECK(out.ok()) << out.status().ToString();
  return std::move(*out);
}

TEST(JoinKernelDifferentialTest, GeneratedSqlFusedMatchesMaterializedOracle) {
  const std::vector<Config> configs = {
      {1, true, false}, {4, true, false}, {1, false, false},
      {4, false, false}, {1, true, true}, {4, true, true},
      {1, false, true}, {4, false, true}};
  std::vector<PipelineCase> cases;
  for (const char* model : {"student", "resnet"}) {
    for (auto prejoin : {core::PreJoinStrategy::kNone,
                         core::PreJoinStrategy::kPreJoinMapping,
                         core::PreJoinStrategy::kPreJoinFull}) {
      for (bool batched : {false, true}) {
        cases.push_back({model, prejoin, batched});
      }
    }
  }
  Counter* const fused = MetricsRegistry::Global().counter("db.fused_join_aggs");
  std::map<std::string, Table> first_output;
  for (const Config& cfg : configs) {
    for (const PipelineCase& pc : cases) {
      SCOPED_TRACE(pc.Name() + " @ " + cfg.Name());
      int sites = 0;
      const int64_t fused_before = fused->value();
      Table out = RunPipeline(pc, cfg, &sites);
      if (HasFatalFailure()) return;
      EXPECT_GT(sites, 0);
      if (cfg.vectorized && !cfg.paged) {
        EXPECT_GT(fused->value(), fused_before) << "no statement fused";
      }
      auto [it, inserted] = first_output.emplace(pc.Name(), out);
      if (!inserted) {
        ExpectSameBytes(it->second, out, "pipeline output vs first config");
      }
    }
  }
}

}  // namespace
}  // namespace dl2sql::db
