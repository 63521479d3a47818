/// \file pipeline_test.cc
/// \brief Dl2SqlRunner behaviour: input validation, runtime-table hygiene,
/// repeated runs, profiling output, and the unsupported-operator matrix of
/// Table II.
#include <gtest/gtest.h>

#include "dl2sql/pipeline.h"
#include "nn/builders.h"
#include "nn/layers.h"

namespace dl2sql::core {
namespace {

nn::Model SmallModel() {
  nn::BuilderOptions b;
  b.input_size = 8;
  b.base_channels = 2;
  b.num_classes = 3;
  return nn::BuildStudentCnn(b);
}

TEST(PipelineTest, RejectsWrongInputShape) {
  db::Database db;
  auto converted = ConvertModel(SmallModel(), {}, &db);
  ASSERT_TRUE(converted.ok());
  Dl2SqlRunner runner(&db, std::move(converted).ValueOrDie());
  Tensor wrong(Shape({3, 4, 4}));
  EXPECT_FALSE(runner.Infer(wrong).ok());
}

TEST(PipelineTest, RuntimeTablesAreCleanedUp) {
  db::Database db;
  auto converted = ConvertModel(SmallModel(), {}, &db);
  ASSERT_TRUE(converted.ok());
  const auto runtime_tables = converted->RuntimeTables();
  EXPECT_GT(runtime_tables.size(), 5u);
  Dl2SqlRunner runner(&db, std::move(converted).ValueOrDie());
  Rng rng(1);
  Tensor in = Tensor::Random(Shape({3, 8, 8}), &rng, 1.0f);
  ASSERT_TRUE(runner.Infer(in).ok());
  for (const auto& t : runtime_tables) {
    EXPECT_FALSE(db.catalog().HasTable(t)) << t << " left behind";
  }
}

TEST(PipelineTest, FailedRunCleansUpItsRuntimeTables) {
  db::Database db;
  auto converted = ConvertModel(SmallModel(), {}, &db);
  ASSERT_TRUE(converted.ok());
  const auto runtime_tables = converted->RuntimeTables();
  // Without the FC bias table the run fails at its last op, when every
  // other runtime table already exists.
  std::string fc_bias;
  for (const auto& t : converted->static_tables) {
    if (t.find("_fc") != std::string::npos && t.ends_with("_b")) fc_bias = t;
  }
  ASSERT_FALSE(fc_bias.empty());
  ASSERT_TRUE(db.catalog().DropTable(fc_bias, false).ok());
  Dl2SqlRunner runner(&db, std::move(converted).ValueOrDie());
  Rng rng(1);
  Tensor in = Tensor::Random(Shape({3, 8, 8}), &rng, 1.0f);
  ASSERT_FALSE(runner.Infer(in).ok());
  for (const auto& t : runtime_tables) {
    EXPECT_FALSE(db.catalog().HasTable(t)) << t << " left behind";
  }
}

TEST(PipelineTest, RepeatedRunsAreDeterministic) {
  db::Database db;
  auto converted = ConvertModel(SmallModel(), {}, &db);
  ASSERT_TRUE(converted.ok());
  Dl2SqlRunner runner(&db, std::move(converted).ValueOrDie());
  Rng rng(2);
  Tensor in = Tensor::Random(Shape({3, 8, 8}), &rng, 1.0f);
  auto a = runner.Infer(in);
  auto b = runner.Infer(in);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(*MaxAbsDiff(*a, *b), 0.0);
}

TEST(PipelineTest, StatsCoverEveryOp) {
  db::Database db;
  auto converted = ConvertModel(SmallModel(), {}, &db);
  ASSERT_TRUE(converted.ok());
  const size_t num_ops = converted->ops.size();
  Dl2SqlRunner runner(&db, std::move(converted).ValueOrDie());
  Rng rng(3);
  Tensor in = Tensor::Random(Shape({3, 8, 8}), &rng, 1.0f);
  PipelineRunStats stats;
  ASSERT_TRUE(runner.Infer(in, &stats).ok());
  EXPECT_EQ(stats.per_op.size(), num_ops);
  EXPECT_GT(stats.infer_seconds, 0.0);
  // Join and group-by appear in the clause breakdown (conv layers).
  EXPECT_GT(stats.clause_costs.Get("join"), 0.0);
  EXPECT_GT(stats.clause_costs.Get("groupby"), 0.0);
}

TEST(PipelineTest, PredictMatchesNativeArgmax) {
  nn::Model model = SmallModel();
  db::Database db;
  auto converted = ConvertModel(model, {}, &db);
  ASSERT_TRUE(converted.ok());
  Dl2SqlRunner runner(&db, std::move(converted).ValueOrDie());
  auto device = Device::Create(DeviceKind::kEdgeCpu);
  Rng rng(4);
  for (int i = 0; i < 5; ++i) {
    Tensor in = Tensor::Random(model.input_shape(), &rng, 1.0f);
    auto native = model.Predict(in, device.get());
    auto via_sql = runner.Predict(in);
    ASSERT_TRUE(native.ok() && via_sql.ok());
    EXPECT_EQ(*native, *via_sql);
  }
}

TEST(PipelineTest, InstanceNormMatchesNative) {
  // Table II lists instance normalization as Supported: the grouped-stats
  // translation must match the native operator.
  nn::Model m("inorm", Shape({3, 6, 6}), {"a"});
  m.AddLayer(std::make_shared<nn::InstanceNorm>("in", 3));
  db::Database db;
  auto converted = ConvertModel(m, {}, &db);
  ASSERT_TRUE(converted.ok()) << converted.status().ToString();
  Dl2SqlRunner runner(&db, std::move(converted).ValueOrDie());
  Rng rng(7);
  Tensor in = Tensor::Random(m.input_shape(), &rng, 2.0f);
  auto device = Device::Create(DeviceKind::kEdgeCpu);
  auto native = m.Forward(in, device.get());
  auto via_sql = runner.Infer(in);
  ASSERT_TRUE(native.ok() && via_sql.ok())
      << native.status().ToString() << " / " << via_sql.status().ToString();
  auto flat = native->Reshape(Shape({native->NumElements()}));
  EXPECT_LT(*MaxAbsDiff(*flat, *via_sql), 2e-3);
}

TEST(PipelineTest, InstanceNormBatchedMatchesNative) {
  nn::Model m("inorm", Shape({2, 5, 5}), {"a"});
  m.AddLayer(std::make_shared<nn::InstanceNorm>("in", 2));
  db::Database db;
  ConvertOptions c;
  c.batched = true;
  auto converted = ConvertModel(m, c, &db);
  ASSERT_TRUE(converted.ok()) << converted.status().ToString();
  Dl2SqlRunner runner(&db, std::move(converted).ValueOrDie());
  Rng rng(9);
  std::vector<Tensor> batch;
  for (int i = 0; i < 3; ++i) {
    batch.push_back(Tensor::Random(m.input_shape(), &rng, 2.0f));
  }
  auto device = Device::Create(DeviceKind::kEdgeCpu);
  auto out = runner.InferBatch(batch);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (size_t b = 0; b < batch.size(); ++b) {
    auto native = m.Forward(batch[b], device.get());
    ASSERT_TRUE(native.ok());
    auto flat = native->Reshape(Shape({native->NumElements()}));
    EXPECT_LT(*MaxAbsDiff(*flat, (*out)[b]), 2e-3) << "batch element " << b;
  }
}

TEST(PipelineTest, ConvertedModelListsStaticTables) {
  db::Database db;
  ConvertOptions opts;
  opts.table_prefix = "probe";
  auto converted = ConvertModel(SmallModel(), opts, &db);
  ASSERT_TRUE(converted.ok());
  for (const auto& t : converted->static_tables) {
    EXPECT_TRUE(db.catalog().HasTable(t)) << t;
    EXPECT_EQ(t.rfind("probe_", 0), 0u) << t << " not under the prefix";
  }
}

TEST(PipelineTest, DistinctPrefixesCoexist) {
  db::Database db;
  ConvertOptions a, b;
  a.table_prefix = "ma";
  b.table_prefix = "mb";
  auto ca = ConvertModel(SmallModel(), a, &db);
  auto cb = ConvertModel(SmallModel(), b, &db);
  ASSERT_TRUE(ca.ok() && cb.ok());
  Dl2SqlRunner ra(&db, std::move(ca).ValueOrDie());
  Dl2SqlRunner rb(&db, std::move(cb).ValueOrDie());
  Rng rng(5);
  Tensor in = Tensor::Random(Shape({3, 8, 8}), &rng, 1.0f);
  auto oa = ra.Infer(in);
  auto ob = rb.Infer(in);
  ASSERT_TRUE(oa.ok() && ob.ok());
  EXPECT_DOUBLE_EQ(*MaxAbsDiff(*oa, *ob), 0.0);
}

}  // namespace
}  // namespace dl2sql::core
