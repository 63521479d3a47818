/// \file batch_test.cc
/// \brief Batched DL2SQL pipelines: one SQL execution infers a whole batch of
/// keyframes and must match native inference exactly, across architectures,
/// pre-join strategies and ReLU modes; InferBatch's sub-batches must match
/// per-image inference; the batched nUDF path must leave query answers
/// unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "dl2sql/pipeline.h"
#include "nn/builders.h"
#include "workload/testbed.h"

namespace dl2sql::core {
namespace {

std::vector<Tensor> MakeBatch(const Shape& shape, int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> out;
  for (int i = 0; i < n; ++i) out.push_back(Tensor::Random(shape, &rng, 1.0f));
  return out;
}

double BatchVsNative(const nn::Model& model, ConvertOptions options, int n,
                     uint64_t seed) {
  options.batched = true;
  db::Database db;
  auto converted = ConvertModel(model, options, &db);
  EXPECT_TRUE(converted.ok()) << converted.status().ToString();
  if (!converted.ok()) return 1e9;
  Dl2SqlRunner runner(&db, std::move(converted).ValueOrDie());

  auto inputs = MakeBatch(model.input_shape(), n, seed);
  auto device = Device::Create(DeviceKind::kEdgeCpu);
  auto batch_out = runner.InferBatch(inputs);
  EXPECT_TRUE(batch_out.ok()) << batch_out.status().ToString();
  if (!batch_out.ok()) return 1e9;

  double worst = 0;
  for (int i = 0; i < n; ++i) {
    auto native = model.Forward(inputs[static_cast<size_t>(i)], device.get());
    EXPECT_TRUE(native.ok());
    auto flat = native->Reshape(Shape({native->NumElements()}));
    auto diff = MaxAbsDiff(*flat, (*batch_out)[static_cast<size_t>(i)]);
    EXPECT_TRUE(diff.ok()) << diff.status().ToString();
    if (diff.ok()) worst = std::max(worst, *diff);
  }
  return worst;
}

constexpr double kTol = 2e-3;

int64_t Argmax(const Tensor& t) {
  int64_t best = 0;
  for (int64_t i = 1; i < t.NumElements(); ++i) {
    if (t.at(i) > t.at(best)) best = i;
  }
  return best;
}

TEST(BatchedPipeline, StudentCnnBatchMatchesNative) {
  nn::BuilderOptions b;
  b.input_size = 16;
  b.base_channels = 4;
  EXPECT_LT(BatchVsNative(nn::BuildStudentCnn(b), {}, 5, 7), kTol);
}

TEST(BatchedPipeline, ResNetBatchMatchesNative) {
  nn::BuilderOptions b;
  b.input_size = 12;
  b.base_channels = 4;
  auto m = nn::BuildResNet(7, b);
  ASSERT_TRUE(m.ok());
  EXPECT_LT(BatchVsNative(*m, {}, 3, 11), kTol);
}

TEST(BatchedPipeline, DenseNetBatchMatchesNative) {
  nn::BuilderOptions b;
  b.input_size = 10;
  b.base_channels = 4;
  EXPECT_LT(BatchVsNative(nn::BuildDenseNetTiny(b), {}, 3, 13), kTol);
}

TEST(BatchedPipeline, AttentionBatchMatchesNative) {
  nn::BuilderOptions b;
  b.input_size = 6;
  EXPECT_LT(BatchVsNative(nn::BuildAttentionMlp(b), {}, 4, 17), kTol);
}

TEST(BatchedPipeline, PreJoinStrategiesBatchMatchNative) {
  nn::BuilderOptions b;
  b.input_size = 16;
  b.base_channels = 4;
  nn::Model m = nn::BuildStudentCnn(b);
  for (auto strategy :
       {PreJoinStrategy::kPreJoinMapping, PreJoinStrategy::kPreJoinFull}) {
    ConvertOptions c;
    c.prejoin = strategy;
    EXPECT_LT(BatchVsNative(m, c, 4, 19), kTol)
        << "strategy " << static_cast<int>(strategy);
  }
}

TEST(BatchedPipeline, ReluAsUpdateBatchMatchesNative) {
  nn::BuilderOptions b;
  b.input_size = 12;
  b.base_channels = 3;
  ConvertOptions c;
  c.relu_as_update = true;
  EXPECT_LT(BatchVsNative(nn::BuildStudentCnn(b), c, 3, 23), kTol);
}

TEST(BatchedPipeline, BatchOfOneEqualsSingle) {
  nn::BuilderOptions b;
  b.input_size = 8;
  b.base_channels = 2;
  nn::Model m = nn::BuildStudentCnn(b);

  db::Database db1, db2;
  ConvertOptions single, batched;
  single.table_prefix = "s";
  batched.table_prefix = "b";
  batched.batched = true;
  auto c1 = ConvertModel(m, single, &db1);
  auto c2 = ConvertModel(m, batched, &db2);
  ASSERT_TRUE(c1.ok() && c2.ok());
  Dl2SqlRunner r1(&db1, std::move(c1).ValueOrDie());
  Dl2SqlRunner r2(&db2, std::move(c2).ValueOrDie());
  Rng rng(3);
  Tensor in = Tensor::Random(m.input_shape(), &rng, 1.0f);
  auto o1 = r1.Infer(in);
  auto o2 = r2.Infer(in);  // delegates to InferBatch({in})
  ASSERT_TRUE(o1.ok() && o2.ok());
  EXPECT_LT(*MaxAbsDiff(*o1, *o2), 1e-9);
}

TEST(BatchedPipeline, SubBatchesMatchPerImageInference) {
  // 32x32 keyframes: a wide first conv, so one sub-batch holds few images.
  nn::BuilderOptions b;
  b.input_size = 32;
  b.base_channels = 4;
  nn::Model m = nn::BuildStudentCnn(b);
  db::Database single_db, batched_db;
  ConvertOptions single, batched;
  batched.batched = true;
  auto c1 = ConvertModel(m, single, &single_db);
  auto c2 = ConvertModel(m, batched, &batched_db);
  ASSERT_TRUE(c1.ok() && c2.ok());
  Dl2SqlRunner per_image(&single_db, std::move(c1).ValueOrDie());
  Dl2SqlRunner runner(&batched_db, std::move(c2).ValueOrDie());
  const int64_t per_run = runner.sub_batch_size();
  EXPECT_EQ(per_run, Dl2SqlRunner::kSubBatchRowBudget /
                         runner.model().WidestTableRows());
  ASSERT_GT(per_run, 1);
  ASSERT_LT(per_run, 16) << "keep the test small";
  EXPECT_EQ(per_image.sub_batch_size(), 1);

  // Two full sub-batches, then a count that splits unevenly.
  for (int64_t n : {2 * per_run, 2 * per_run + 1}) {
    auto inputs = MakeBatch(m.input_shape(), static_cast<int>(n), 31);
    PipelineRunStats stats;
    auto out = runner.InferBatch(inputs, &stats);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(static_cast<int64_t>(out->size()), n);
    EXPECT_EQ(stats.per_op.size(), runner.model().ops.size());
    for (int64_t i = 0; i < n; ++i) {
      const Tensor& got = (*out)[static_cast<size_t>(i)];
      auto want = per_image.Infer(inputs[static_cast<size_t>(i)]);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_EQ(Argmax(got), Argmax(*want)) << "image " << i << " of " << n;
      EXPECT_LT(*MaxAbsDiff(got, *want), kTol) << "image " << i << " of " << n;
    }
  }
}

TEST(BatchedPipeline, EmptyBatchIsEmpty) {
  nn::BuilderOptions b;
  b.input_size = 8;
  b.base_channels = 2;
  db::Database db;
  ConvertOptions c;
  c.batched = true;
  auto converted = ConvertModel(nn::BuildStudentCnn(b), c, &db);
  ASSERT_TRUE(converted.ok());
  Dl2SqlRunner runner(&db, std::move(converted).ValueOrDie());
  auto out = runner.InferBatch({});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(BatchedPipeline, PaperBatchStatsPerImage) {
  // Batched Q4-BN normalizes each image by its own statistics.
  Rng rng(5);
  nn::Model m("bnprobe", Shape({2, 6, 6}), {"a"});
  m.AddLayer(std::make_shared<nn::Conv2d>("conv", 2, 2, 3, 1, 1, &rng));
  auto bn = std::make_shared<nn::BatchNorm>("bn", 2);
  bn->RandomizeStats(&rng);
  m.AddLayer(bn);
  db::Database db;
  ConvertOptions c;
  c.bn_mode = BnSqlMode::kPaperBatchStats;
  c.batched = true;
  auto converted = ConvertModel(m, c, &db);
  ASSERT_TRUE(converted.ok()) << converted.status().ToString();
  Dl2SqlRunner runner(&db, std::move(converted).ValueOrDie());
  auto inputs = MakeBatch(m.input_shape(), 3, 29);
  auto out = runner.InferBatch(inputs);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (const auto& img : *out) {
    double mean = 0;
    for (int64_t i = 0; i < img.NumElements(); ++i) mean += img.at(i);
    mean /= static_cast<double>(img.NumElements());
    EXPECT_NEAR(mean, 0.0, 0.05);
  }
}

/// Canonical multiset rendering (row order-insensitive; floats to 6
/// significant digits), as perfbench compares approaches.
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

TEST(BatchedEngine, AgreesWithRowAtATimeEngines) {
  // The testbed's DL2SQL-OP scores each nUDF morsel through batched
  // pipelines; DB-PyTorch runs the native model one keyframe at a time.
  workload::TestbedOptions options;
  options.dataset.video_rows = 250;
  options.dataset.keyframe_size = 8;
  options.dataset.seed = 41;
  options.model_base_channels = 2;
  options.histogram_samples = 12;
  auto tb = workload::Testbed::Create(options);
  ASSERT_TRUE(tb.ok());

  // Humidity > 50: about half of the 25 fabric rows pass (none of this
  // seed's reach 80), so every query scores keyframes.
  workload::QueryParams p;
  p.selectivity = 0.5;
  for (int type = 1; type <= 4; ++type) {
    const std::string sql = workload::MakeQueryOfType(type, p, nullptr);
    engines::QueryCost c1, c2;
    const int64_t calls0 = (*tb)->dl2sql_op()->database().neural_calls();
    auto batched = (*tb)->dl2sql_op()->ExecuteCollaborative(sql, &c1);
    auto ref = (*tb)->independent()->ExecuteCollaborative(sql, &c2);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString() << "\n" << sql;
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_GT((*tb)->dl2sql_op()->database().neural_calls(), calls0)
        << "type " << type << " scored no keyframe";
    EXPECT_EQ(Canonical(*batched), Canonical(*ref)) << "type " << type;
  }
}

}  // namespace
}  // namespace dl2sql::core
