/// \file db_advanced_test.cc
/// \brief Edge cases across the engine: view nesting, aggregates over empty
/// and NULL-laden inputs, DML corner cases, blob columns, join guards, and
/// the exact COUNT semantics the DL2SQL pipelines rely on.
#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.h"
#include "common/mem_tracker.h"
#include "db/database.h"

namespace dl2sql::db {
namespace {

class DbAdvancedTest : public ::testing::Test {
 protected:
  Table Q(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).ValueOrDie() : Table{};
  }
  Database db_;
};

TEST_F(DbAdvancedTest, NestedViewsExpand) {
  Q("CREATE TABLE t (a INT)");
  Q("INSERT INTO t VALUES (1), (2), (3), (4)");
  Q("CREATE VIEW v1 AS SELECT a FROM t WHERE a > 1");
  Q("CREATE VIEW v2 AS SELECT a FROM v1 WHERE a < 4");
  Table r = Q("SELECT count(*) FROM v2");
  EXPECT_EQ(r.column(0).GetValue(0).int_value(), 2);
  // A view of a view of a view.
  Q("CREATE VIEW v3 AS SELECT a * 10 AS b FROM v2");
  EXPECT_DOUBLE_EQ(Q("SELECT sum(b) FROM v3").column(0).GetValue(0)
                       .float_value(),
                   50.0);
}

TEST_F(DbAdvancedTest, ViewCycleIsRejected) {
  Q("CREATE TABLE base (a INT)");
  Q("CREATE VIEW loopy AS SELECT a FROM base");
  // Replace the view to reference itself.
  Q("CREATE OR REPLACE VIEW loopy AS SELECT a FROM loopy");
  EXPECT_FALSE(db_.Execute("SELECT * FROM loopy").ok());
}

TEST_F(DbAdvancedTest, AggregateOverEmptyInput) {
  Q("CREATE TABLE e (a INT, b FLOAT)");
  Table r = Q("SELECT count(*), sum(b), avg(b), min(a), max(a) FROM e");
  ASSERT_EQ(r.num_rows(), 1);
  EXPECT_EQ(r.column(0).GetValue(0).int_value(), 0);
  EXPECT_TRUE(r.column(1).GetValue(0).is_null());
  EXPECT_TRUE(r.column(2).GetValue(0).is_null());
  EXPECT_TRUE(r.column(3).GetValue(0).is_null());
  // Grouped aggregate over empty input has no rows.
  Table g = Q("SELECT a, count(*) FROM e GROUP BY a");
  EXPECT_EQ(g.num_rows(), 0);
}

TEST_F(DbAdvancedTest, CountBooleanCountsTrues) {
  Q("CREATE TABLE flags (grp INT, ok BOOL)");
  Q("INSERT INTO flags VALUES (1, TRUE), (1, FALSE), (1, TRUE), (2, FALSE)");
  Table r = Q("SELECT grp, count(ok = TRUE) FROM flags GROUP BY grp ORDER BY "
              "grp");
  ASSERT_EQ(r.num_rows(), 2);
  EXPECT_EQ(r.column(1).GetValue(0).int_value(), 2);
  EXPECT_EQ(r.column(1).GetValue(1).int_value(), 0);
}

TEST_F(DbAdvancedTest, StddevEdgeCases) {
  Q("CREATE TABLE s (v FLOAT)");
  Q("INSERT INTO s VALUES (5.0)");
  // stddevSamp of one sample is NULL.
  EXPECT_TRUE(Q("SELECT stddevSamp(v) FROM s").column(0).GetValue(0).is_null());
  Q("INSERT INTO s VALUES (5.0)");
  EXPECT_DOUBLE_EQ(
      Q("SELECT stddevSamp(v) FROM s").column(0).GetValue(0).float_value(),
      0.0);
}

TEST_F(DbAdvancedTest, GroupByNullsFormOneGroup) {
  Q("CREATE TABLE n (k INT, v INT)");
  Q("INSERT INTO n VALUES (1, 10), (NULL, 20), (NULL, 30)");
  Table r = Q("SELECT k, count(*) FROM n GROUP BY k ORDER BY count(*) DESC");
  ASSERT_EQ(r.num_rows(), 2);
  EXPECT_EQ(r.column(1).GetValue(0).int_value(), 2);  // the NULL group
  // The NULL group seen first, alone and beside a second key.
  Q("CREATE TABLE m (s TEXT, k INT)");
  Q("INSERT INTO m VALUES ('x', NULL), ('y', 2), ('x', NULL)");
  EXPECT_EQ(Q("SELECT k, count(*) FROM m GROUP BY k ORDER BY k").ToString(),
            "k | count(*)\nNULL | 2\n2 | 1\n");
  EXPECT_EQ(
      Q("SELECT s, k, count(*) FROM m GROUP BY s, k ORDER BY s").ToString(),
      "s | k | count(*)\nx | NULL | 2\ny | 2 | 1\n");
}

TEST_F(DbAdvancedTest, LimitZeroAndOverLimit) {
  Q("CREATE TABLE t (a INT)");
  Q("INSERT INTO t VALUES (1), (2)");
  EXPECT_EQ(Q("SELECT a FROM t LIMIT 0").num_rows(), 0);
  EXPECT_EQ(Q("SELECT a FROM t LIMIT 100").num_rows(), 2);
}

TEST_F(DbAdvancedTest, InsertWithColumnListFillsNulls) {
  Q("CREATE TABLE t (a INT, b TEXT, c FLOAT)");
  Q("INSERT INTO t (c, a) VALUES (1.5, 7)");
  Table r = Q("SELECT a, b, c FROM t");
  EXPECT_EQ(r.column(0).GetValue(0).int_value(), 7);
  EXPECT_TRUE(r.column(1).GetValue(0).is_null());
  EXPECT_DOUBLE_EQ(r.column(2).GetValue(0).float_value(), 1.5);
  // Arity mismatch is rejected.
  EXPECT_FALSE(db_.Execute("INSERT INTO t (a) VALUES (1, 2)").ok());
}

TEST_F(DbAdvancedTest, UpdateSelfReferential) {
  Q("CREATE TABLE t (a INT, b INT)");
  Q("INSERT INTO t VALUES (1, 100), (2, 200), (3, 300)");
  // All right-hand sides are evaluated against the pre-update table.
  Q("UPDATE t SET a = b, b = a WHERE a > 1");
  Table r = Q("SELECT a, b FROM t ORDER BY b");
  EXPECT_EQ(r.column(0).GetValue(0).int_value(), 1);
  EXPECT_EQ(r.column(0).GetValue(1).int_value(), 200);
}

TEST_F(DbAdvancedTest, DeleteAllAndReinsert) {
  Q("CREATE TABLE t (a INT)");
  Q("INSERT INTO t VALUES (1), (2)");
  Q("DELETE FROM t");
  EXPECT_EQ(Q("SELECT count(*) FROM t").column(0).GetValue(0).int_value(), 0);
  Q("INSERT INTO t VALUES (9)");
  EXPECT_EQ(Q("SELECT count(*) FROM t").column(0).GetValue(0).int_value(), 1);
}

TEST_F(DbAdvancedTest, BlobColumnsStoreAndCompare) {
  Q("CREATE TABLE bl (id INT, payload BLOB)");
  Q("INSERT INTO bl VALUES (1, 'abc'), (2, 'xyz')");
  Table r = Q("SELECT id FROM bl WHERE length(payload) = 3");
  EXPECT_EQ(r.num_rows(), 2);
}

TEST_F(DbAdvancedTest, CrossJoinGuardRejectsHugeProducts) {
  Q("CREATE TABLE a (x INT)");
  Q("CREATE TABLE b (y INT)");
  auto ta = db_.catalog().GetTable("a");
  auto tb = db_.catalog().GetTable("b");
  for (int i = 0; i < 11000; ++i) {
    ASSERT_TRUE((*ta)->AppendRow({Value::Int(i)}).ok());
    ASSERT_TRUE((*tb)->AppendRow({Value::Int(i)}).ok());
  }
  auto r = db_.Execute("SELECT count(*) FROM a, b");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(DbAdvancedTest, NeuralEquiJoinRunsSymmetricLikeTheHashJoin) {
  // Forced on: a DL2SQL_MEM_TRACKER=OFF leg would print no accounting.
  const bool prior = MemTracker::Enabled();
  MemTracker::SetEnabled(true);
  constexpr int kFrames = 400;
  Q("CREATE TABLE frames (id INT, v INT)");
  Q("CREATE TABLE patterns (pid INT)");
  std::string rows;
  for (int i = 0; i < kFrames; ++i) {
    rows += (i == 0 ? "(" : ", (") + std::to_string(i) + ", " +
            std::to_string(i % 37) + ")";
  }
  Q("INSERT INTO frames VALUES " + rows);
  Q("INSERT INTO patterns VALUES (0), (1), (2), (3), (4), (NULL)");
  // A FLOAT64 nUDF equated to an INT64 column: v / 2 joins pid when v is
  // even.
  NUdfInfo info;
  info.model_name = "half";
  db_.udfs().RegisterNeural(
      "nudf_half", DataType::kFloat64,
      [](const std::vector<Value>& args) -> Result<Value> {
        DL2SQL_ASSIGN_OR_RETURN(double v, args[0].AsDouble());
        return Value::Float(v / 2);
      },
      info);
  const std::string sql =
      "SELECT F.id, P.pid FROM frames F, patterns P WHERE "
      "nudf_half(F.v) = P.pid ORDER BY F.id";

  db_.optimizer_options().enable_nudf_hints = true;
  auto analyzed = db_.ExplainAnalyze(sql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->find("[symmetric]"), std::string::npos) << *analyzed;
  // The key tables and per-row arrays are charged to op.join: the arrival
  // and eviction stamps alone are 16 bytes a row, more than the pairs and
  // the join output of this selective join take.
  const size_t at = analyzed->find("op.join: peak_bytes=");
  ASSERT_NE(at, std::string::npos) << *analyzed;
  const size_t cum = analyzed->find("cumulative_bytes=", at);
  ASSERT_NE(cum, std::string::npos);
  EXPECT_GE(std::stoll(analyzed->substr(cum + 17)), 16 * (kFrames + 6))
      << *analyzed;
  const Table symmetric = Q(sql);

  db_.optimizer_options().enable_nudf_hints = false;
  auto plain = db_.Explain(sql);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->find("[symmetric]"), std::string::npos) << *plain;
  const Table hashed = Q(sql);
  EXPECT_EQ(symmetric.num_rows(), 55);  // 11 frames each with v = 0, 2, .., 8
  EXPECT_EQ(symmetric.ToString(), hashed.ToString());
  MemTracker::SetEnabled(prior);
}

TEST_F(DbAdvancedTest, ThreeWayJoin) {
  Q("CREATE TABLE x (id INT, v INT)");
  Q("CREATE TABLE y (id INT, w INT)");
  Q("CREATE TABLE z (id INT, u INT)");
  Q("INSERT INTO x VALUES (1, 10), (2, 20)");
  Q("INSERT INTO y VALUES (1, 100), (2, 200)");
  Q("INSERT INTO z VALUES (1, 1000), (3, 3000)");
  Table r = Q("SELECT x.v, y.w, z.u FROM x, y, z WHERE x.id = y.id AND y.id "
              "= z.id");
  ASSERT_EQ(r.num_rows(), 1);
  EXPECT_EQ(r.column(2).GetValue(0).int_value(), 1000);
}

TEST_F(DbAdvancedTest, SelfJoinWithAliases) {
  Q("CREATE TABLE p (id INT, parent INT)");
  Q("INSERT INTO p VALUES (1, 0), (2, 1), (3, 1), (4, 2)");
  Table r = Q("SELECT c.id FROM p c, p f WHERE c.parent = f.id AND f.parent "
              "= 1 ORDER BY c.id");
  ASSERT_EQ(r.num_rows(), 1);
  EXPECT_EQ(r.column(0).GetValue(0).int_value(), 4);
}

TEST_F(DbAdvancedTest, ScalarSubqueryMustBeScalar) {
  Q("CREATE TABLE t (a INT)");
  Q("INSERT INTO t VALUES (1), (2)");
  // Two rows -> error.
  EXPECT_FALSE(db_.Execute("SELECT (SELECT a FROM t)").ok());
  // One row, one column -> fine.
  EXPECT_TRUE(db_.Execute("SELECT (SELECT max(a) FROM t)").ok());
}

TEST_F(DbAdvancedTest, TempTablesDropTogether) {
  Q("CREATE TEMP TABLE tmp1 AS SELECT 1 AS a");
  Q("CREATE TEMP TABLE tmp2 AS SELECT 2 AS a");
  Q("CREATE TABLE keepme (a INT)");
  db_.catalog().DropAllTemporary();
  EXPECT_FALSE(db_.catalog().HasTable("tmp1"));
  EXPECT_FALSE(db_.catalog().HasTable("tmp2"));
  EXPECT_TRUE(db_.catalog().HasTable("keepme"));
}

TEST_F(DbAdvancedTest, CatalogNameCollisions) {
  Q("CREATE TABLE dup (a INT)");
  EXPECT_FALSE(db_.Execute("CREATE TABLE dup (b INT)").ok());
  EXPECT_TRUE(db_.Execute("CREATE TABLE IF NOT EXISTS dup (b INT)").ok());
  EXPECT_FALSE(db_.Execute("CREATE VIEW dup AS SELECT 1").ok());
  Q("CREATE VIEW vw AS SELECT 1 AS one");
  EXPECT_FALSE(db_.Execute("CREATE TABLE vw (a INT)").ok());
  // DROP TABLE tolerates views (DL2SQL pipelines recreate both kinds).
  EXPECT_TRUE(db_.Execute("DROP TABLE vw").ok());
}

TEST_F(DbAdvancedTest, CaseInsensitiveIdentifiers) {
  Q("CREATE TABLE MiXeD (ColA INT)");
  Q("INSERT INTO mixed VALUES (5)");
  EXPECT_EQ(Q("SELECT cola FROM MIXED").column(0).GetValue(0).int_value(), 5);
  EXPECT_EQ(Q("SELECT m.COLA FROM mixed m").column(0).GetValue(0).int_value(),
            5);
}

TEST_F(DbAdvancedTest, QualifiedAmbiguityDetected) {
  Q("CREATE TABLE l (id INT)");
  Q("CREATE TABLE r (id INT)");
  Q("INSERT INTO l VALUES (1)");
  Q("INSERT INTO r VALUES (1)");
  // Bare `id` is ambiguous across the join.
  EXPECT_FALSE(db_.Execute("SELECT id FROM l, r WHERE l.id = r.id").ok());
  EXPECT_TRUE(db_.Execute("SELECT l.id FROM l, r WHERE l.id = r.id").ok());
}

TEST_F(DbAdvancedTest, OrderByMultipleKeysMixedDirections) {
  Q("CREATE TABLE t (a INT, b INT)");
  Q("INSERT INTO t VALUES (1, 2), (1, 1), (2, 9), (0, 5)");
  Table r = Q("SELECT a, b FROM t ORDER BY a ASC, b DESC");
  EXPECT_EQ(r.column(0).GetValue(0).int_value(), 0);
  EXPECT_EQ(r.column(1).GetValue(1).int_value(), 2);
  EXPECT_EQ(r.column(1).GetValue(2).int_value(), 1);
}

TEST_F(DbAdvancedTest, DivisionByZeroIsInfNotError) {
  // ClickHouse semantics: float division by zero -> inf.
  Table r = Q("SELECT 1 / 0");
  EXPECT_TRUE(std::isinf(r.column(0).GetValue(0).float_value()));
}

TEST_F(DbAdvancedTest, UpdateTypeMismatchRejected) {
  Q("CREATE TABLE t (a INT, s TEXT)");
  Q("INSERT INTO t VALUES (1, 'x')");
  EXPECT_FALSE(db_.Execute("UPDATE t SET s = 5").ok());
  EXPECT_FALSE(db_.Execute("UPDATE t SET a = 'nope'").ok());
}

TEST_F(DbAdvancedTest, AnalyzeTracksDml) {
  Q("CREATE TABLE t (a INT)");
  Q("INSERT INTO t VALUES (1), (2), (3)");
  ASSERT_TRUE(db_.catalog().Analyze("t").ok());
  ASSERT_NE(db_.catalog().GetStats("t"), nullptr);
  EXPECT_EQ(db_.catalog().GetStats("t")->num_rows, 3);
  // DML invalidates cached stats.
  Q("INSERT INTO t VALUES (4)");
  EXPECT_EQ(db_.catalog().GetStats("t"), nullptr);
}

TEST_F(DbAdvancedTest, DerivedTableWithAggInsideJoin) {
  Q("CREATE TABLE sales (region TEXT, amt FLOAT)");
  Q("INSERT INTO sales VALUES ('e', 10.0), ('e', 20.0), ('w', 5.0)");
  Q("CREATE TABLE goals (region TEXT, goal FLOAT)");
  Q("INSERT INTO goals VALUES ('e', 25.0), ('w', 10.0)");
  Table r = Q(
      "SELECT g.region FROM (SELECT region, sum(amt) AS total FROM sales "
      "GROUP BY region) s, goals g WHERE s.region = g.region AND s.total > "
      "g.goal");
  ASSERT_EQ(r.num_rows(), 1);
  EXPECT_EQ(r.column(0).GetValue(0).string_value(), "e");
}

}  // namespace
}  // namespace dl2sql::db
