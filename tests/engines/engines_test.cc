/// \file engines_test.cc
/// \brief Cross-strategy equivalence: DB-PyTorch, DB-UDF, DL2SQL and
/// DL2SQL-OP must produce identical answers for every collaborative query
/// type — they differ only in *where* the work happens.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "workload/testbed.h"

namespace dl2sql::workload {
namespace {

using engines::CollaborativeEngine;
using engines::QueryCost;

/// Canonical multiset rendering of a result table (row order-insensitive).
std::vector<std::string> Canonical(const db::Table& t) {
  std::vector<std::string> rows;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::string row;
    for (int c = 0; c < t.num_columns(); ++c) {
      const db::Value v = t.column(c).GetValue(r);
      if (v.type() == db::DataType::kFloat64) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v.float_value());
        row += buf;
      } else {
        row += v.ToString();
      }
      row += "|";
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class EnginesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TestbedOptions options;
    options.dataset.video_rows = 300;
    options.dataset.keyframe_size = 8;
    options.dataset.seed = 99;
    options.model_base_channels = 2;
    options.histogram_samples = 16;
    auto tb = Testbed::Create(options);
    ASSERT_TRUE(tb.ok()) << tb.status().ToString();
    testbed_ = std::move(tb).ValueOrDie().release();
  }
  static void TearDownTestSuite() {
    delete testbed_;
    testbed_ = nullptr;
  }

  void ExpectAllEnginesAgree(const std::string& sql) {
    std::vector<std::vector<std::string>> results;
    std::vector<std::string> names;
    for (CollaborativeEngine* e : testbed_->AllEngines()) {
      QueryCost cost;
      auto r = e->ExecuteCollaborative(sql, &cost);
      ASSERT_TRUE(r.ok()) << e->name() << ": " << r.status().ToString()
                          << "\nSQL: " << sql;
      results.push_back(Canonical(*r));
      names.push_back(e->name());
    }
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[0], results[i])
          << names[0] << " vs " << names[i] << " differ on:\n"
          << sql;
    }
  }

  static Testbed* testbed_;
};

Testbed* EnginesTest::testbed_ = nullptr;

TEST_F(EnginesTest, Type1Agree) {
  QueryParams p;
  p.selectivity = 0.05;
  ExpectAllEnginesAgree(MakeType1Query(p));
}

TEST_F(EnginesTest, Type2Agree) {
  QueryParams p;
  p.selectivity = 0.05;
  ExpectAllEnginesAgree(MakeType2Query(p));
}

TEST_F(EnginesTest, Type3Agree) {
  QueryParams p;
  p.selectivity = 0.05;
  ExpectAllEnginesAgree(MakeType3Query(p));
}

TEST_F(EnginesTest, Type4Agree) {
  QueryParams p;
  p.selectivity = 0.05;
  ExpectAllEnginesAgree(MakeType4Query(p));
}

TEST_F(EnginesTest, Type4EqualityAgree) {
  QueryParams p;
  p.selectivity = 0.05;
  ExpectAllEnginesAgree(MakeType4EqualityQuery(p));
}

TEST_F(EnginesTest, TwoUdfQueryAgree) {
  QueryParams p;
  p.selectivity = 0.1;
  ExpectAllEnginesAgree(MakeTwoUdfQuery(p));
}

TEST_F(EnginesTest, CostBreakdownIsPopulated) {
  QueryParams p;
  p.selectivity = 0.05;
  for (CollaborativeEngine* e : testbed_->AllEngines()) {
    QueryCost cost;
    auto r = e->ExecuteCollaborative(MakeType3Query(p), &cost);
    ASSERT_TRUE(r.ok()) << e->name();
    EXPECT_GT(cost.Total(), 0.0) << e->name();
    EXPECT_GE(cost.inference_seconds, 0.0) << e->name();
    EXPECT_GE(cost.loading_seconds, 0.0) << e->name();
    EXPECT_GE(cost.relational_seconds, 0.0) << e->name();
  }
}

TEST_F(EnginesTest, HintsPruneInference) {
  // At a selective relational predicate, DL2SQL-OP should delay the nUDF and
  // evaluate it on far fewer rows than plain DL2SQL (which pushes it to the
  // scan).
  QueryParams p;
  p.selectivity = 0.02;
  const std::string sql = MakeType3Query(p);

  testbed_->dl2sql()->database().reset_neural_calls();
  QueryCost c1;
  ASSERT_TRUE(testbed_->dl2sql()->ExecuteCollaborative(sql, &c1).ok());
  const int64_t plain_calls = testbed_->dl2sql()->database().neural_calls();

  testbed_->dl2sql_op()->database().reset_neural_calls();
  QueryCost c2;
  ASSERT_TRUE(testbed_->dl2sql_op()->ExecuteCollaborative(sql, &c2).ok());
  const int64_t op_calls = testbed_->dl2sql_op()->database().neural_calls();

  EXPECT_LT(op_calls, plain_calls)
      << "hints should prune nUDF invocations (plain=" << plain_calls
      << ", op=" << op_calls << ")";
}

TEST_F(EnginesTest, PipelineStatsCoverEveryConvertedOp) {
  // Each nUDF morsel runs in batched sub-batches; the query's profile still
  // splits per converted op (Fig. 9) and per clause (Fig. 10).
  db::Database scratch;
  core::ConvertOptions copts;
  copts.batched = true;
  auto converted =
      core::ConvertModel(testbed_->classify_model(), copts, &scratch);
  ASSERT_TRUE(converted.ok()) << converted.status().ToString();

  QueryParams p;
  p.selectivity = 0.2;
  QueryCost cost;
  testbed_->dl2sql_op()->database().reset_neural_calls();
  ASSERT_TRUE(
      testbed_->dl2sql_op()->ExecuteCollaborative(MakeType1Query(p), &cost)
          .ok());
  ASSERT_GT(testbed_->dl2sql_op()->database().neural_calls(), 0);
  const core::PipelineRunStats& stats =
      testbed_->dl2sql_op()->last_pipeline_stats();
  ASSERT_EQ(stats.per_op.size(), converted->ops.size());
  double seconds = 0;
  for (size_t i = 0; i < stats.per_op.size(); ++i) {
    EXPECT_EQ(stats.per_op[i].label, converted->ops[i].layer_name);
    seconds += stats.per_op[i].seconds;
  }
  EXPECT_GT(seconds, 0.0);
  EXPECT_GT(stats.clause_costs.Get("join"), 0.0);
}

TEST(Dl2SqlOpConversionTest, TestbedRunsPreJoinedConvsWithBnFolded) {
  TestbedOptions options;
  options.dataset.video_rows = 300;
  options.dataset.keyframe_size = 8;
  options.dataset.seed = 99;
  options.model_base_channels = 2;
  options.histogram_samples = 16;
  auto tb = Testbed::Create(options);
  ASSERT_TRUE(tb.ok()) << tb.status().ToString();
  Testbed& testbed = **tb;

  // Type 1-4 results still equal DB-PyTorch's.
  QueryParams p;
  p.selectivity = 0.05;
  for (const std::string& sql :
       {MakeType1Query(p), MakeType2Query(p), MakeType3Query(p),
        MakeType4Query(p)}) {
    QueryCost op_cost, ref_cost;
    auto op = testbed.dl2sql_op()->ExecuteCollaborative(sql, &op_cost);
    auto ref = testbed.independent()->ExecuteCollaborative(sql, &ref_cost);
    ASSERT_TRUE(op.ok()) << op.status().ToString() << "\nSQL: " << sql;
    ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\nSQL: " << sql;
    EXPECT_EQ(Canonical(*op), Canonical(*ref)) << sql;
  }

  // DL2SQL-OP: one join per conv (no Q2 reshape table), BN folded away.
  auto op_model = testbed.dl2sql_op()->converted_model("nUDF_classify");
  ASSERT_TRUE(op_model.ok()) << op_model.status().ToString();
  EXPECT_EQ((*op_model)->options.prejoin, core::PreJoinStrategy::kPreJoinFull);
  for (const std::string& t : (*op_model)->RuntimeTables()) {
    EXPECT_EQ(t.find("_fm"), std::string::npos) << t;
  }
  int bn_ops = 0;
  for (const core::ConvertedOp& o : (*op_model)->ops) {
    if (o.kind != nn::LayerKind::kBatchNorm) continue;
    ++bn_ops;
    EXPECT_TRUE(o.runtime_sql.empty()) << o.layer_name;
  }
  EXPECT_GT(bn_ops, 0);

  // Plain DL2SQL keeps the paper's Q1-Q5 form.
  auto plain = testbed.dl2sql()->converted_model("nUDF_classify");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ((*plain)->options.prejoin, core::PreJoinStrategy::kNone);
  const std::vector<std::string> plain_tables = (*plain)->RuntimeTables();
  EXPECT_TRUE(std::any_of(plain_tables.begin(), plain_tables.end(),
                          [](const std::string& t) {
                            return t.find("_fm") != std::string::npos;
                          }));
}

TEST(Dl2SqlDeploymentTest, QueryDeploysOnlyTheModelsItCalls) {
  // nUDF_detect is a prefix of nUDF_detect_1: a query calling one must not
  // convert the other.
  db::Database master;
  DatasetOptions d;
  d.video_rows = 120;
  d.keyframe_size = 8;
  ASSERT_TRUE(PopulateDatabase(&master, d).ok());
  auto device = Device::Create(DeviceKind::kEdgeCpu);
  engines::Dl2SqlEngine::Options o;
  o.enable_optimizer_hints = true;
  engines::Dl2SqlEngine engine(device, o);
  ASSERT_TRUE(engine.AttachTablesFrom(master).ok());
  TestbedOptions opts;
  opts.dataset = d;
  opts.model_base_channels = 2;
  for (const char* name : {"nUDF_detect", "nUDF_detect_1"}) {
    engines::ModelDeployment dep;
    dep.udf_name = name;
    dep.output = engines::NUdfOutput::kBool;
    ASSERT_TRUE(
        engine.DeployModel(BuildRepositoryModel(opts, 2, 5), dep).ok());
  }

  Counter* const deployments =
      MetricsRegistry::Global().counter("dl2sql.model_deployments");
  for (const char* name : {"nUDF_detect_1", "nUDF_detect"}) {
    QueryParams p;
    p.selectivity = 0.2;
    p.detect_udf = name;
    const int64_t before = deployments->value();
    QueryCost cost;
    auto r = engine.ExecuteCollaborative(MakeType2Query(p), &cost);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(deployments->value() - before, 1) << name;
  }
}

TEST(Dl2SqlDeploymentTest, MixedArchitecturesKeepEveryOpInTheProfile) {
  // One DL2SQL-OP query calls a student-CNN nUDF and a ResNet-4 nUDF: the
  // merged profile holds every (label, kind) of both converted models once,
  // so the Fig. 9 split counts each model's ops under their own kinds.
  db::Database master;
  DatasetOptions d;
  d.video_rows = 120;
  d.keyframe_size = 8;
  ASSERT_TRUE(PopulateDatabase(&master, d).ok());
  auto device = Device::Create(DeviceKind::kEdgeCpu);
  engines::Dl2SqlEngine::Options o;
  o.enable_optimizer_hints = true;
  engines::Dl2SqlEngine engine(device, o);
  ASSERT_TRUE(engine.AttachTablesFrom(master).ok());
  TestbedOptions opts;
  opts.dataset = d;
  opts.model_base_channels = 2;
  const nn::Model student = BuildRepositoryModel(opts, 2, 5);
  opts.resnet_depth = 4;
  const nn::Model resnet = BuildRepositoryModel(opts, 10, 6);

  std::set<std::pair<std::string, nn::LayerKind>> expected;
  for (const nn::Model* m : {&student, &resnet}) {
    db::Database scratch;
    core::ConvertOptions copts;
    copts.batched = true;
    auto converted = core::ConvertModel(*m, copts, &scratch);
    ASSERT_TRUE(converted.ok()) << converted.status().ToString();
    for (const auto& op : converted->ops) {
      expected.emplace(op.layer_name, op.kind);
    }
  }

  engines::ModelDeployment detect;
  detect.udf_name = "nUDF_detect";
  detect.output = engines::NUdfOutput::kBool;
  ASSERT_TRUE(engine.DeployModel(student, detect).ok());
  engines::ModelDeployment classify;
  classify.udf_name = "nUDF_classify";
  classify.output = engines::NUdfOutput::kLabel;
  ASSERT_TRUE(engine.DeployModel(resnet, classify).ok());

  // Both predicates sit on the same keyframe column with no relational
  // filter in front, so each nUDF scores every row.
  const QueryParams p;
  const std::string sql =
      "SELECT count(*) FROM video V WHERE " + p.detect_udf +
      "(V.keyframe) = TRUE OR " + p.classify_udf + "(V.keyframe) = 'class_1'";
  QueryCost cost;
  auto r = engine.ExecuteCollaborative(sql, &cost);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const core::PipelineRunStats& stats = engine.last_pipeline_stats();
  std::set<std::pair<std::string, nn::LayerKind>> seen;
  for (const auto& op : stats.per_op) {
    EXPECT_TRUE(seen.emplace(op.label, op.kind).second)
        << "op listed twice: " << op.label;
    EXPECT_GE(op.seconds, 0.0);
  }
  EXPECT_EQ(seen, expected);
}

TEST_F(EnginesTest, SymmetricHashJoinKicksIn) {
  QueryParams p;
  p.selectivity = 0.05;
  const std::string sql = MakeType4EqualityQuery(p);
  const int64_t before =
      testbed_->dl2sql_op()->database().symmetric_joins_executed();
  QueryCost cost;
  ASSERT_TRUE(testbed_->dl2sql_op()->ExecuteCollaborative(sql, &cost).ok());
  const int64_t after =
      testbed_->dl2sql_op()->database().symmetric_joins_executed();
  EXPECT_GT(after, before) << "hint rule 3 should pick the symmetric join";
}

TEST(EngineCalibrationTest, SqlCalibrationReDerivedFromVectorizedThroughput) {
  // The vectorized batch-at-a-time engine closed most of the gap to the
  // ClickHouse-class engine the paper deploys on: the calibration factor was
  // re-derived from micro_db's measured scan-filter/group-by throughput
  // (~120-150M rows/s vs ClickHouse's published 200-500M rows/s) and must
  // stay at that measured value, strictly above the interpreted row path's
  // 0.05 and at most 1 (a factor above 1 would claim we outrun the engine
  // we calibrate against).
  EXPECT_DOUBLE_EQ(CollaborativeEngine::kSqlEngineCalibration, 0.4);
  EXPECT_GT(CollaborativeEngine::kSqlEngineCalibration, 0.05);
  EXPECT_LE(CollaborativeEngine::kSqlEngineCalibration, 1.0);
}

TEST_F(EnginesTest, StorageAccounting) {
  auto script = testbed_->independent()->ScriptBytes("nUDF_detect");
  auto blob = testbed_->udf()->CompiledBlobBytes("nUDF_detect");
  auto relational = testbed_->dl2sql()->RelationalStorageBytes("nUDF_detect");
  ASSERT_TRUE(script.ok() && blob.ok() && relational.ok());
  // Table IV's ordering: DL2SQL > DB-PyTorch (script) > DB-UDF (blob).
  EXPECT_GT(*script, *blob);
  EXPECT_GT(*relational, *script);
}

}  // namespace
}  // namespace dl2sql::workload
