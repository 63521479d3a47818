/// \file db_basic_test.cc
/// \brief End-to-end smoke tests of the lindb engine: DDL, DML, SELECTs with
/// joins / aggregation / subqueries — the SQL surface the DL2SQL pipelines
/// depend on.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "db/database.h"

namespace dl2sql::db {
namespace {

class DbBasicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE fabric (transID INT, patternID INT, meter FLOAT,
                           humidity FLOAT, temperature FLOAT, printdate TEXT);
      INSERT INTO fabric VALUES
        (1, 10, 5.0, 85.0, 31.0, '2021-01-05'),
        (2, 10, 7.5, 75.0, 29.0, '2021-01-10'),
        (3, 20, 2.5, 90.0, 35.0, '2021-02-01'),
        (4, 20, 4.0, 82.0, 33.0, '2021-01-20'),
        (5, 30, 9.0, 60.0, 25.0, '2021-01-25');
      CREATE TABLE video (transID INT, date TEXT, keyframe TEXT);
      INSERT INTO video VALUES
        (1, '2021-01-05', 'k1'),
        (2, '2021-01-10', 'k2'),
        (3, '2021-02-01', 'k3'),
        (4, '2021-01-20', 'k4');
    )sql")
                    .ok());
  }

  Table MustQuery(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).ValueOrDie() : Table{};
  }

  Database db_;
};

TEST_F(DbBasicTest, SelectAll) {
  Table t = MustQuery("SELECT * FROM fabric");
  EXPECT_EQ(t.num_rows(), 5);
  EXPECT_EQ(t.num_columns(), 6);
}

TEST_F(DbBasicTest, SelectWithoutFrom) {
  Table t = MustQuery("SELECT 1 + 2 AS three, 'x' AS s");
  ASSERT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.column(0).GetValue(0).int_value(), 3);
  EXPECT_EQ(t.column(1).GetValue(0).string_value(), "x");
}

TEST_F(DbBasicTest, FilterComparisons) {
  Table t = MustQuery(
      "SELECT transID FROM fabric WHERE humidity > 80 AND temperature > 30");
  ASSERT_EQ(t.num_rows(), 3);
}

TEST_F(DbBasicTest, StringDateRange) {
  Table t = MustQuery(
      "SELECT transID FROM fabric WHERE printdate > '2021-01-01' AND "
      "printdate < '2021-01-31'");
  EXPECT_EQ(t.num_rows(), 4);
}

TEST_F(DbBasicTest, Projection) {
  Table t = MustQuery("SELECT meter * 2 AS dbl FROM fabric WHERE transID = 1");
  ASSERT_EQ(t.num_rows(), 1);
  EXPECT_DOUBLE_EQ(t.column(0).GetValue(0).float_value(), 10.0);
}

TEST_F(DbBasicTest, InnerJoinExplicit) {
  Table t = MustQuery(
      "SELECT F.transID, V.keyframe FROM fabric F INNER JOIN video V ON "
      "F.transID = V.transID");
  EXPECT_EQ(t.num_rows(), 4);
}

TEST_F(DbBasicTest, CommaJoinWithWhereEquality) {
  Table t = MustQuery(
      "SELECT F.transID FROM fabric F, video V WHERE F.transID = V.transID "
      "AND F.humidity > 80");
  EXPECT_EQ(t.num_rows(), 3);
}

TEST_F(DbBasicTest, GroupByAggregates) {
  Table t = MustQuery(
      "SELECT patternID, sum(meter), count(*), avg(meter) FROM fabric GROUP "
      "BY patternID ORDER BY patternID");
  ASSERT_EQ(t.num_rows(), 3);
  EXPECT_EQ(t.column(0).GetValue(0).int_value(), 10);
  EXPECT_DOUBLE_EQ(t.column(1).GetValue(0).float_value(), 12.5);
  EXPECT_EQ(t.column(2).GetValue(0).int_value(), 2);
  EXPECT_DOUBLE_EQ(t.column(3).GetValue(0).float_value(), 6.25);
}

TEST_F(DbBasicTest, GlobalAggregate) {
  Table t = MustQuery("SELECT sum(meter), min(meter), max(meter) FROM fabric");
  ASSERT_EQ(t.num_rows(), 1);
  EXPECT_DOUBLE_EQ(t.column(0).GetValue(0).float_value(), 28.0);
  EXPECT_DOUBLE_EQ(t.column(1).GetValue(0).float_value(), 2.5);
  EXPECT_DOUBLE_EQ(t.column(2).GetValue(0).float_value(), 9.0);
}

TEST_F(DbBasicTest, StddevSamp) {
  ASSERT_TRUE(db_.ExecuteScript("CREATE TABLE nums (v FLOAT);"
                                "INSERT INTO nums VALUES (2.0),(4.0),(4.0),"
                                "(4.0),(5.0),(5.0),(7.0),(9.0);")
                  .ok());
  Table t = MustQuery("SELECT stddevSamp(v) FROM nums");
  EXPECT_NEAR(t.column(0).GetValue(0).float_value(), 2.13809, 1e-4);
}

TEST_F(DbBasicTest, HavingAndOrderDesc) {
  Table t = MustQuery(
      "SELECT patternID, sum(meter) AS total FROM fabric GROUP BY patternID "
      "HAVING sum(meter) > 5 ORDER BY total DESC");
  ASSERT_EQ(t.num_rows(), 3);
  EXPECT_DOUBLE_EQ(t.column(1).GetValue(0).float_value(), 12.5);
}

TEST_F(DbBasicTest, ScalarSubquery) {
  Table t = MustQuery(
      "SELECT transID FROM fabric WHERE meter > (SELECT avg(meter) FROM "
      "fabric)");
  EXPECT_EQ(t.num_rows(), 2);  // 7.5 and 9.0 exceed the mean 5.6
}

TEST_F(DbBasicTest, DerivedTable) {
  Table t = MustQuery(
      "SELECT d.patternID FROM (SELECT patternID, sum(meter) AS m FROM fabric "
      "GROUP BY patternID) d WHERE d.m > 6 ORDER BY d.patternID");
  ASSERT_EQ(t.num_rows(), 3);
}

TEST_F(DbBasicTest, CreateTableAsSelect) {
  MustQuery("CREATE TEMP TABLE big AS SELECT * FROM fabric WHERE meter > 4");
  Table t = MustQuery("SELECT count(*) FROM big");
  EXPECT_EQ(t.column(0).GetValue(0).int_value(), 3);
}

TEST_F(DbBasicTest, CreateTableParenSelectClickhouseStyle) {
  // The paper's Q1 syntax: CREATE TEMP TABLE x (SELECT ...)
  MustQuery("CREATE TEMP TABLE sel (SELECT transID FROM fabric)");
  EXPECT_EQ(MustQuery("SELECT count(*) FROM sel").column(0).GetValue(0)
                .int_value(),
            5);
}

TEST_F(DbBasicTest, ViewsExpandWithAlias) {
  MustQuery("CREATE VIEW heavy AS SELECT transID, meter FROM fabric WHERE "
            "meter > 4");
  Table t = MustQuery(
      "SELECT h.transID FROM heavy h, video v WHERE h.transID = v.transID");
  EXPECT_EQ(t.num_rows(), 2);
}

TEST_F(DbBasicTest, UpdateWithWhere) {
  MustQuery("UPDATE fabric SET meter = 0 WHERE meter < 5");
  Table t = MustQuery("SELECT count(*) FROM fabric WHERE meter = 0");
  EXPECT_EQ(t.column(0).GetValue(0).int_value(), 2);
}

TEST_F(DbBasicTest, DeleteWithWhere) {
  MustQuery("DELETE FROM fabric WHERE patternID = 10");
  EXPECT_EQ(MustQuery("SELECT count(*) FROM fabric").column(0).GetValue(0)
                .int_value(),
            3);
}

TEST_F(DbBasicTest, DropTable) {
  MustQuery("DROP TABLE video");
  EXPECT_FALSE(db_.Execute("SELECT * FROM video").ok());
  EXPECT_TRUE(db_.Execute("DROP TABLE IF EXISTS video").ok());
  EXPECT_FALSE(db_.Execute("DROP TABLE video").ok());
}

TEST_F(DbBasicTest, InsertSelect) {
  MustQuery("CREATE TABLE fabric2 (transID INT, patternID INT, meter FLOAT,"
            " humidity FLOAT, temperature FLOAT, printdate TEXT)");
  MustQuery("INSERT INTO fabric2 SELECT * FROM fabric WHERE patternID = 20");
  EXPECT_EQ(MustQuery("SELECT count(*) FROM fabric2").column(0).GetValue(0)
                .int_value(),
            2);
}

TEST_F(DbBasicTest, LimitAndOrder) {
  Table t = MustQuery("SELECT transID FROM fabric ORDER BY meter DESC LIMIT 2");
  ASSERT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.column(0).GetValue(0).int_value(), 5);
  EXPECT_EQ(t.column(0).GetValue(1).int_value(), 2);
}

TEST_F(DbBasicTest, InList) {
  Table t = MustQuery("SELECT transID FROM fabric WHERE patternID IN (10, 30)");
  EXPECT_EQ(t.num_rows(), 3);
}

TEST_F(DbBasicTest, BuiltinFunctions) {
  Table t = MustQuery("SELECT greatest(0, -3.5), sqrt(16.0), intDiv(7, 2)");
  EXPECT_DOUBLE_EQ(t.column(0).GetValue(0).float_value(), 0.0);
  EXPECT_DOUBLE_EQ(t.column(1).GetValue(0).float_value(), 4.0);
  EXPECT_EQ(t.column(2).GetValue(0).int_value(), 3);
}

TEST_F(DbBasicTest, NullHandling) {
  MustQuery("CREATE TABLE n (a INT, b INT)");
  MustQuery("INSERT INTO n VALUES (1, NULL), (2, 5), (NULL, NULL)");
  EXPECT_EQ(MustQuery("SELECT count(*) FROM n").column(0).GetValue(0)
                .int_value(),
            3);
  EXPECT_EQ(MustQuery("SELECT count(b) FROM n").column(0).GetValue(0)
                .int_value(),
            1);
  // NULL comparisons filter out.
  EXPECT_EQ(MustQuery("SELECT count(*) FROM n WHERE b > 0").column(0)
                .GetValue(0)
                .int_value(),
            1);
}

TEST_F(DbBasicTest, ParseErrors) {
  EXPECT_FALSE(db_.Execute("SELEC * FROM fabric").ok());
  EXPECT_FALSE(db_.Execute("SELECT FROM fabric").ok());
  EXPECT_FALSE(db_.Execute("SELECT * FROM fabric WHERE").ok());
  EXPECT_FALSE(db_.Execute("SELECT 'unterminated FROM fabric").ok());
}

TEST_F(DbBasicTest, UnknownColumnsAndTables) {
  EXPECT_FALSE(db_.Execute("SELECT nosuch FROM fabric").ok());
  EXPECT_FALSE(db_.Execute("SELECT * FROM nosuch").ok());
}

TEST_F(DbBasicTest, ExplainShowsPushdown) {
  auto explain = db_.Explain(
      "SELECT F.transID FROM fabric F, video V WHERE F.transID = V.transID "
      "AND F.meter > 4");
  ASSERT_TRUE(explain.ok());
  // The meter predicate must sit below the join (pushed to the fabric scan).
  const std::string plan = *explain;
  const size_t join_pos = plan.find("Join");
  const size_t filter_pos = plan.find("F.meter");
  ASSERT_NE(join_pos, std::string::npos);
  ASSERT_NE(filter_pos, std::string::npos);
  EXPECT_GT(filter_pos, join_pos);
}

const char* const kJoinGroupSql =
    "SELECT patternID, sum(meter) FROM fabric F, video V WHERE F.transID = "
    "V.transID GROUP BY patternID";

TEST_F(DbBasicTest, CostBreakdownBuckets) {
  CostAccumulator acc;
  ASSERT_TRUE(db_.Execute(kJoinGroupSql, &acc).ok());
  EXPECT_GT(acc.Get("scan"), 0.0);
  EXPECT_GT(acc.Get("join"), 0.0);
  EXPECT_GT(acc.Get("groupby"), 0.0);
}

TEST(DbStatementStatsTest, NestedStatementsKeepTheirOwnStats) {
  // A neural UDF whose body runs a 200k-row GROUP BY on the same Database:
  // that SQL is a statement of its own, so none of its work reaches the
  // calling statement's clause buckets, node map or footer.
  Database db;
  constexpr int64_t kBigRows = 200000;
  std::vector<int64_t> g(kBigRows);
  std::vector<int64_t> v(kBigRows);
  for (int64_t i = 0; i < kBigRows; ++i) {
    g[static_cast<size_t>(i)] = i % 97;
    v[static_cast<size_t>(i)] = i % 1000;
  }
  auto big = Table::FromColumns(
      TableSchema({{"g", DataType::kInt64}, {"v", DataType::kInt64}}),
      {Column::Ints(std::move(g)), Column::Ints(std::move(v))});
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(db.RegisterTable("big", std::move(big).ValueOrDie()).ok());
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE small (x INT);"
                               "INSERT INTO small VALUES (1), (2), (3), (4)")
                  .ok());
  NUdfInfo info;
  info.model_name = "nested";
  db.udfs().RegisterNeural(
      "nudf_nested", DataType::kFloat64,
      [&db](const std::vector<Value>& args) -> Result<Value> {
        DL2SQL_ASSIGN_OR_RETURN(
            Table groups, db.Execute("SELECT g, sum(v) FROM big GROUP BY g"));
        DL2SQL_ASSIGN_OR_RETURN(double x, args[0].AsDouble());
        return Value::Float(x + static_cast<double>(groups.num_rows()));
      },
      info);
  const std::string sql = "SELECT nudf_nested(x) AS y FROM small";

  CostAccumulator acc;
  auto result = db.Execute(sql, &acc);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 4);
  EXPECT_GT(acc.Get("inference"), 0.0);
  EXPECT_EQ(acc.Get("groupby"), 0.0);

  // Scan small and Project produce 4 rows each; the nested GROUP BYs' scans
  // of big belong to their own statements.
  auto text = db.ExplainAnalyze(sql);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("Operators: rows=8,"), std::string::npos) << *text;
}

}  // namespace
}  // namespace dl2sql::db
