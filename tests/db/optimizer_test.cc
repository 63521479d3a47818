/// \file optimizer_test.cc
/// \brief Optimizer rewrites and cost-model behaviour: predicate pushdown,
/// equi-key extraction, statistics-driven selectivity, build-side choice,
/// column pruning (plan shapes, and results against the unoptimized plan)
/// and the default model's documented magic constants.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "db/database.h"
#include "db/planner.h"
#include "db/storage/storage_engine.h"

namespace dl2sql::db {
namespace {

class OptimizerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE big (id INT, v FLOAT, grp INT);
      CREATE TABLE small (id INT, tag TEXT);
    )sql")
                    .ok());
    // big: 1000 rows, v uniform 0..999, grp 0..9; small: 10 rows.
    auto big = db_.catalog().GetTable("big");
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE((*big)->AppendRow({Value::Int(i),
                                     Value::Float(static_cast<double>(i)),
                                     Value::Int(i % 10)})
                      .ok());
    }
    auto small = db_.catalog().GetTable("small");
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*small)
                      ->AppendRow({Value::Int(i),
                                   Value::String("t" + std::to_string(i))})
                      .ok());
    }
    ASSERT_TRUE(db_.catalog().Analyze("big").ok());
    ASSERT_TRUE(db_.catalog().Analyze("small").ok());
  }

  PlanPtr Plan(const std::string& sql) {
    auto stmt = sql::ParseStatement(sql);
    DL2SQL_CHECK(stmt.ok()) << stmt.status().ToString();
    auto plan = db_.PlanQuery(
        *std::get<std::shared_ptr<SelectStmt>>(*stmt));
    DL2SQL_CHECK(plan.ok()) << plan.status().ToString();
    return *plan;
  }

  static const PlanNode* FindJoin(const PlanNode& n) {
    if (n.kind == PlanKind::kJoin) return &n;
    for (const auto& c : n.children) {
      if (const PlanNode* j = FindJoin(*c)) return j;
    }
    return nullptr;
  }

  Database db_;
};

TEST_F(OptimizerFixture, CommaJoinBecomesHashJoin) {
  PlanPtr p = Plan("SELECT b.id FROM big b, small s WHERE b.id = s.id");
  const PlanNode* join = FindJoin(*p);
  ASSERT_NE(join, nullptr);
  EXPECT_TRUE(join->join_is_inner);
  ASSERT_EQ(join->equi_keys.size(), 1u);
  EXPECT_EQ(join->join_condition, nullptr);  // fully absorbed into keys
}

TEST_F(OptimizerFixture, SingleTablePredicatesPushBelowJoin) {
  PlanPtr p = Plan(
      "SELECT b.id FROM big b, small s WHERE b.id = s.id AND b.v > 500 AND "
      "s.tag = 't3'");
  const PlanNode* join = FindJoin(*p);
  ASSERT_NE(join, nullptr);
  // Each child must be a Filter over a Scan.
  for (const auto& child : join->children) {
    EXPECT_EQ(child->kind, PlanKind::kFilter);
    EXPECT_EQ(child->children[0]->kind, PlanKind::kScan);
  }
}

TEST_F(OptimizerFixture, NonEquiConditionStaysResidual) {
  PlanPtr p = Plan("SELECT b.id FROM big b, small s WHERE b.id < s.id");
  const PlanNode* join = FindJoin(*p);
  ASSERT_NE(join, nullptr);
  EXPECT_TRUE(join->equi_keys.empty());
  ASSERT_NE(join->join_condition, nullptr);
}

TEST_F(OptimizerFixture, BuildSideIsSmallerInput) {
  PlanPtr p = Plan("SELECT b.id FROM big b, small s WHERE b.id = s.id");
  const PlanNode* join = FindJoin(*p);
  ASSERT_NE(join, nullptr);
  // Left child (big) is larger -> build on the right (small): flag false.
  EXPECT_FALSE(join->join_build_left);

  PlanPtr p2 = Plan("SELECT b.id FROM small s, big b WHERE b.id = s.id");
  const PlanNode* join2 = FindJoin(*p2);
  ASSERT_NE(join2, nullptr);
  EXPECT_TRUE(join2->join_build_left);
}

TEST_F(OptimizerFixture, RangeSelectivityInterpolatesWithStats) {
  // v uniform in [0, 999]: the estimator should get ~25% for v > 750.
  PlanPtr p = Plan("SELECT id FROM big WHERE v > 750");
  // Root is Project over Filter; est_rows annotated by the final pass.
  ASSERT_EQ(p->children[0]->kind, PlanKind::kFilter);
  EXPECT_NEAR(p->children[0]->est_rows, 250.0, 30.0);
}

TEST_F(OptimizerFixture, EqualitySelectivityUsesNdv) {
  PlanPtr p = Plan("SELECT id FROM big WHERE grp = 3");
  ASSERT_EQ(p->children[0]->kind, PlanKind::kFilter);
  // ndv(grp) = 10 -> 1000/10 = 100 rows.
  EXPECT_NEAR(p->children[0]->est_rows, 100.0, 1.0);
}

TEST_F(OptimizerFixture, JoinCardinalityWithStats) {
  PlanPtr p = Plan("SELECT b.id FROM big b, small s WHERE b.id = s.id");
  const PlanNode* join = FindJoin(*p);
  // |big| * |small| / max(ndv) = 1000*10/1000 = 10.
  EXPECT_NEAR(join->est_rows, 10.0, 1.0);
}

TEST_F(OptimizerFixture, GroupByEstimateUsesNdv) {
  PlanPtr p = Plan("SELECT grp, count(*) FROM big GROUP BY grp");
  const PlanNode* agg = p->children[0].get();
  ASSERT_EQ(agg->kind, PlanKind::kAggregate);
  EXPECT_NEAR(agg->est_rows, 10.0, 1.0);
}

TEST(DefaultCostModelTest, BlindConstantsWithoutStats) {
  // A table that exists but was never ANALYZE'd falls back to the magic
  // constants documented in cost_model.h.
  Database db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INT, b INT);"
                               "INSERT INTO t VALUES (1, 1), (2, 2)")
                  .ok());
  auto stmt = sql::ParseStatement("SELECT a FROM t WHERE a = 5");
  auto plan = db.PlanQuery(*std::get<std::shared_ptr<SelectStmt>>(*stmt));
  ASSERT_TRUE(plan.ok());
  const PlanNode* filter = (*plan)->children[0].get();
  ASSERT_EQ(filter->kind, PlanKind::kFilter);
  EXPECT_NEAR(filter->est_rows,
              2 * DefaultCostModel::kDefaultEqSelectivity, 1e-9);
}

TEST(DefaultCostModelTest, UnknownTableAssumedRows) {
  Database db;
  CostContext ctx;
  ctx.catalog = &db.catalog();
  PlanPtr scan = MakeScan("ghost", "g", TableSchema({{"x", DataType::kInt64}}));
  DefaultCostModel model;
  ASSERT_TRUE(model.Annotate(scan.get(), ctx).ok());
  EXPECT_DOUBLE_EQ(scan->est_rows, 1000.0);  // textbook default
  ctx.assumed_rows["ghost"] = 77;
  ASSERT_TRUE(model.Annotate(scan.get(), ctx).ok());
  EXPECT_DOUBLE_EQ(scan->est_rows, 77.0);
}

TEST(OptimizerToggleTest, PushdownCanBeDisabled) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INT);"
                               "INSERT INTO t VALUES (1), (2), (3)")
                  .ok());
  db.optimizer_options().enable_pushdown = false;
  auto result = db.Execute("SELECT a FROM t WHERE a > 1");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2);
  // Filter stays above the scan unchanged (no scan-level predicates).
  const PlanPtr& plan = db.last_plan();
  EXPECT_EQ(plan->children[0]->kind, PlanKind::kFilter);
}

TEST(ExplainTest, ExplainAnalyzeReportsActuals) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INT);"
                               "INSERT INTO t VALUES (1), (2), (3), (4)")
                  .ok());
  auto text = db.ExplainAnalyze("SELECT a FROM t WHERE a > 2");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("actual rows=2"), std::string::npos) << *text;
  EXPECT_NE(text->find("actual rows=4"), std::string::npos) << *text;
  EXPECT_NE(text->find("self="), std::string::npos);
  EXPECT_FALSE(db.ExplainAnalyze("DROP TABLE t").ok());
}

TEST(ExplainTest, RendersTree) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  auto text = db.Explain("SELECT a FROM t WHERE a > 0 ORDER BY a LIMIT 3");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("Limit"), std::string::npos);
  EXPECT_NE(text->find("Sort"), std::string::npos);
  EXPECT_NE(text->find("Filter"), std::string::npos);
  EXPECT_NE(text->find("Scan t"), std::string::npos);
  EXPECT_FALSE(db.Explain("INSERT INTO t VALUES (1)").ok());
}

// ------------------------------------------------------ column pruning ----

/// The oocore_join benchmark's tables: a wide fact table (its payload is
/// most of its bytes) and a small dimension table.
class PruningFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE fact (id INT, grp INT, val FLOAT, payload TEXT);
      CREATE TABLE dim (id INT, w INT);
      CREATE TABLE tag (id INT, label TEXT);
      INSERT INTO fact VALUES (1, 0, 1.5, 'p'), (2, 1, 2.5, 'p'),
                              (3, 1, 3.5, 'p');
      INSERT INTO dim VALUES (0, 0), (1, 1);
      INSERT INTO tag VALUES (0, 'a'), (1, 'b');
    )sql")
                    .ok());
  }

  PlanPtr Plan(const std::string& sql) {
    auto stmt = sql::ParseStatement(sql);
    DL2SQL_CHECK(stmt.ok()) << stmt.status().ToString();
    auto plan = db_.PlanQuery(*std::get<std::shared_ptr<SelectStmt>>(*stmt));
    DL2SQL_CHECK(plan.ok()) << plan.status().ToString();
    return *plan;
  }

  static const PlanNode* FindScan(const PlanNode& n, const std::string& table) {
    if (n.kind == PlanKind::kScan && n.table_name == table) return &n;
    for (const auto& c : n.children) {
      if (const PlanNode* s = FindScan(*c, table)) return s;
    }
    return nullptr;
  }

  /// Unqualified names of the columns the scan of `table` outputs.
  std::vector<std::string> ScanColumns(const std::string& sql,
                                       const std::string& table) {
    const PlanPtr plan = Plan(sql);
    const PlanNode* scan = FindScan(*plan, table);
    DL2SQL_CHECK(scan != nullptr) << "no scan of " << table << " in " << sql;
    std::vector<std::string> names;
    for (const Field& f : scan->output_schema.fields()) {
      names.push_back(f.name.substr(f.name.rfind('.') + 1));
    }
    return names;
  }

  Database db_;
};

using Names = std::vector<std::string>;

TEST_F(PruningFixture, OocoreStatementsScanOnlyTheirColumns) {
  const char* const join =
      "SELECT F.id, F.grp, D.w FROM fact F INNER JOIN dim D ON F.grp = D.id";
  EXPECT_EQ(ScanColumns(join, "fact"), (Names{"id", "grp"}));
  EXPECT_EQ(ScanColumns(join, "dim"), (Names{"id", "w"}));
  EXPECT_EQ(ScanColumns("SELECT grp, count(*) AS c, sum(val) AS s, avg(val) "
                        "AS a, min(val) AS lo, max(val) AS hi FROM fact "
                        "GROUP BY grp",
                        "fact"),
            (Names{"grp", "val"}));
  EXPECT_EQ(ScanColumns("SELECT id * 2 AS d, val + 1.0 AS v FROM fact "
                        "WHERE grp < 7",
                        "fact"),
            (Names{"id", "grp", "val"}));
}

TEST_F(PruningFixture, CountStarKeepsOneFixedWidthColumn) {
  EXPECT_EQ(ScanColumns("SELECT count(*) FROM fact", "fact"), (Names{"id"}));
  EXPECT_EQ(ScanColumns("SELECT count(*) FROM tag", "tag"), (Names{"id"}));
}

TEST_F(PruningFixture, StarAndRootFilterKeepEveryColumn) {
  const Names all = {"id", "grp", "val", "payload"};
  for (const char* sql :
       {"SELECT * FROM fact", "SELECT * FROM fact WHERE grp < 1"}) {
    EXPECT_EQ(ScanColumns(sql, "fact"), all) << sql;
    EXPECT_TRUE(FindScan(*Plan(sql), "fact")->scan_columns.empty()) << sql;
  }
}

TEST_F(PruningFixture, PrunesBelowTheReorderedJoinsColumnOrderProject) {
  // Three relations: ReorderJoins restores the original column order with
  // a project of bare column references over the reordered chain; the
  // columns no operator above reads are dropped through it.
  const std::string sql =
      "SELECT F.id, T.label FROM fact F, dim D, tag T "
      "WHERE F.grp = D.id AND D.w = T.id";
  const PlanPtr plan = Plan(sql);
  const PlanNode* restore = plan->children[0].get();
  ASSERT_EQ(restore->kind, PlanKind::kProject);
  ASSERT_EQ(restore->children[0]->kind, PlanKind::kJoin);
  EXPECT_EQ(ScanColumns(sql, "fact"), (Names{"id", "grp"}));
  EXPECT_EQ(ScanColumns(sql, "dim"), (Names{"id", "w"}));
  EXPECT_EQ(ScanColumns(sql, "tag"), (Names{"id", "label"}));
  auto result = db_.Execute(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 3);
}

TEST_F(PruningFixture, ExplainNamesAPrunedScansColumns) {
  auto text = db_.Explain(
      "SELECT F.id, F.grp, D.w FROM fact F INNER JOIN dim D ON F.grp = D.id");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("Scan fact AS F [columns: id, grp]"), std::string::npos)
      << *text;
  // dim loses no column, so its scan line names none.
  const size_t dim = text->find("Scan dim AS D");
  ASSERT_NE(dim, std::string::npos) << *text;
  EXPECT_EQ(text->substr(dim, text->find('\n', dim) - dim).find("[columns"),
            std::string::npos)
      << *text;
}

/// Column pruning against the unoptimized plan: every query of a corpus of
/// tricky shapes runs optimized (in memory, and paged under a 1 MB query
/// budget) and must render what the planner's plan renders when run in
/// memory without a budget. Rows compare sorted; a query with a LIMIT
/// orders by every output column.
class PruningOracleTest : public ::testing::Test {
 protected:
  static void Fill(Database* db) {
    ASSERT_TRUE(db->ExecuteScript(R"sql(
      CREATE TABLE t (a INT, b FLOAT, s TEXT, pad TEXT);
      CREATE TABLE u (x INT, y INT, name TEXT);
      CREATE TABLE v (k INT, label TEXT);
      CREATE VIEW tv AS SELECT a, b, s, pad FROM t;
    )sql")
                    .ok());
    // t is ~1.3 MB in three storage chunks, over the paged run's budget;
    // its pad column is most of it. u and v stay small: the unoptimized
    // plan runs every join as a cross product.
    Table t{(*db->catalog().GetTable("t"))->schema()};
    const std::string pad(120, 'x');
    for (int64_t i = 0; i < 9000; ++i) {
      ASSERT_TRUE(t.AppendRow({Value::Int(i),
                               Value::Float(static_cast<double>(i % 97) / 3.0),
                               Value::String("s" + std::to_string(i % 13)),
                               Value::String(pad)})
                      .ok());
    }
    ASSERT_TRUE(db->RegisterTable("t", std::move(t)).ok());
    Table u{(*db->catalog().GetTable("u"))->schema()};
    for (int64_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(u.AppendRow({Value::Int(i * 7), Value::Int(i % 5),
                               Value::String("n" + std::to_string(i))})
                      .ok());
    }
    ASSERT_TRUE(db->RegisterTable("u", std::move(u)).ok());
    Table v{(*db->catalog().GetTable("v"))->schema()};
    for (int64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          v.AppendRow({Value::Int(i), Value::String("l" + std::to_string(i))})
              .ok());
    }
    ASSERT_TRUE(db->RegisterTable("v", std::move(v)).ok());
  }

  /// The render's header, then its rows sorted.
  static std::string SortedRender(const Table& t) {
    std::istringstream lines(t.ToString(t.num_rows()));
    std::string header;
    std::getline(lines, header);
    std::vector<std::string> rows;
    for (std::string line; std::getline(lines, line);) rows.push_back(line);
    std::sort(rows.begin(), rows.end());
    std::string out = header + "\n";
    for (const std::string& r : rows) out += r + "\n";
    return out;
  }

  static std::string Unoptimized(Database* db, const std::string& sql) {
    auto stmt = sql::ParseStatement(sql);
    DL2SQL_CHECK(stmt.ok()) << sql << ": " << stmt.status().ToString();
    auto plan = Planner(&db->catalog(), &db->udfs())
                    .PlanSelect(*std::get<std::shared_ptr<SelectStmt>>(*stmt));
    DL2SQL_CHECK(plan.ok()) << sql << ": " << plan.status().ToString();
    auto r = db->ExecutePlan(**plan);
    DL2SQL_CHECK(r.ok()) << sql << ": " << r.status().ToString();
    return SortedRender(*r);
  }
};

TEST_F(PruningOracleTest, OptimizedMatchesUnoptimizedPlan) {
  const std::vector<std::string> corpus = {
      // ORDER BY a column that is not selected.
      "SELECT a, s FROM t WHERE a < 300 ORDER BY b DESC, a",
      // A derived table (its pad is an unread pass-through) and a view.
      "SELECT d.a2, d.s FROM (SELECT a * 2 AS a2, s, pad FROM t WHERE b > 10) "
      "d WHERE d.s = 's3'",
      "SELECT a FROM tv WHERE b < 5",
      // A reordered 3-way join, one of its leaves a derived table.
      "SELECT d.a, v.label FROM (SELECT a, s, pad FROM t WHERE a < 60) d, u, "
      "v WHERE d.a = u.x AND u.y = v.k",
      // A residual join condition.
      "SELECT t.a, u.name FROM t INNER JOIN u ON t.a = u.x AND t.b < u.y",
      // HAVING over an aggregate that is not selected.
      "SELECT s, count(*) AS c FROM t GROUP BY s HAVING max(a) > 8990",
      // A scalar subquery.
      "SELECT a FROM t WHERE b > (SELECT avg(b) FROM t) AND a < 500",
      // COUNT(*) alone, and over a join.
      "SELECT count(*) AS c FROM t",
      "SELECT count(*) AS c FROM t, u WHERE t.a = u.x",
      // A select list of literals only.
      "SELECT 1 AS one, 'x' AS lit FROM t WHERE a < 5",
      // An IN list.
      "SELECT a, s FROM t WHERE s IN ('s1', 's2') AND a < 1000",
      // A join whose select list names no column of one side, keyed on
      // u's second column, which moves to index 0 once u's others drop.
      "SELECT t.a, t.s FROM t, u WHERE t.a = u.y",
      // SELECT *, and a LIMIT ordered by every output column.
      "SELECT * FROM u WHERE y < 3",
      "SELECT a, s FROM t ORDER BY a, s LIMIT 7",
  };
  Database ref;
  ASSERT_TRUE(ref.set_storage_mode(StorageMode::kInMemory).ok());
  Fill(&ref);
  Database paged;
  storage::StorageOptions opts;
  opts.pool_bytes = 2u << 20;
  opts.page_min_bytes = 4096;
  ASSERT_TRUE(paged.set_storage_mode(StorageMode::kPaged, opts).ok());
  Fill(&paged);
  paged.set_query_mem_limit(1 << 20);
  for (const std::string& sql : corpus) {
    const std::string expected = Unoptimized(&ref, sql);
    auto in_memory = ref.Execute(sql);
    ASSERT_TRUE(in_memory.ok()) << sql << ": " << in_memory.status().ToString();
    EXPECT_EQ(SortedRender(*in_memory), expected) << sql;
    auto out_of_core = paged.Execute(sql);
    ASSERT_TRUE(out_of_core.ok())
        << sql << ": " << out_of_core.status().ToString();
    EXPECT_EQ(SortedRender(*out_of_core), expected) << sql;
  }
}

}  // namespace
}  // namespace dl2sql::db
