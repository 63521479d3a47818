/// \file converter_test.cc
/// \brief Property tests: the generated SQL pipelines must compute the exact
/// same function as native minidl inference, across layer types, geometries
/// and pre-join strategies (Table II's "Supported" matrix).
#include <gtest/gtest.h>

#include "dl2sql/converter.h"
#include "dl2sql/pipeline.h"
#include "nn/builders.h"
#include "nn/layers.h"

namespace dl2sql::core {
namespace {

using nn::BuilderOptions;
using nn::Model;

/// Runs both paths and returns the max element-wise divergence.
double CompareNativeVsSql(const Model& model, const ConvertOptions& options,
                          uint64_t input_seed) {
  db::Database db;
  auto converted = ConvertModel(model, options, &db);
  EXPECT_TRUE(converted.ok()) << converted.status().ToString();
  if (!converted.ok()) return 1e9;
  Dl2SqlRunner runner(&db, std::move(converted).ValueOrDie());

  Rng rng(input_seed);
  Tensor input = Tensor::Random(model.input_shape(), &rng, 1.0f);

  auto device = Device::Create(DeviceKind::kEdgeCpu);
  auto native = model.Forward(input, device.get());
  EXPECT_TRUE(native.ok()) << native.status().ToString();
  auto sql_out = runner.Infer(input);
  EXPECT_TRUE(sql_out.ok()) << sql_out.status().ToString();
  if (!native.ok() || !sql_out.ok()) return 1e9;

  Tensor nat = std::move(native).ValueOrDie();
  auto flat = nat.Reshape(Shape({nat.NumElements()}));
  EXPECT_TRUE(flat.ok());
  auto diff = MaxAbsDiff(*flat, *sql_out);
  EXPECT_TRUE(diff.ok()) << diff.status().ToString();
  return diff.ok() ? *diff : 1e9;
}

// The double-precision SQL path vs float32 native inference justifies a
// relatively loose tolerance; systematic errors would exceed it by orders of
// magnitude.
constexpr double kTol = 2e-3;

TEST(Dl2SqlConverter, StudentCnnMatchesNative) {
  BuilderOptions opts;
  opts.input_size = 16;
  opts.base_channels = 4;
  Model m = nn::BuildStudentCnn(opts);
  EXPECT_LT(CompareNativeVsSql(m, {}, 7), kTol);
}

TEST(Dl2SqlConverter, LeNetMatchesNative) {
  BuilderOptions opts;
  opts.input_size = 16;
  opts.base_channels = 4;
  Model m = nn::BuildLeNet(opts);
  EXPECT_LT(CompareNativeVsSql(m, {}, 11), kTol);
}

TEST(Dl2SqlConverter, VggTinyMatchesNative) {
  BuilderOptions opts;
  opts.input_size = 12;
  opts.base_channels = 3;
  Model m = nn::BuildVggTiny(opts);
  EXPECT_LT(CompareNativeVsSql(m, {}, 13), kTol);
}

TEST(Dl2SqlConverter, ResNetMatchesNative) {
  BuilderOptions opts;
  opts.input_size = 12;
  opts.base_channels = 4;
  auto m = nn::BuildResNet(7, opts);
  ASSERT_TRUE(m.ok());
  EXPECT_LT(CompareNativeVsSql(*m, {}, 17), kTol);
}

TEST(Dl2SqlConverter, DenseNetMatchesNative) {
  BuilderOptions opts;
  opts.input_size = 10;
  opts.base_channels = 4;
  Model m = nn::BuildDenseNetTiny(opts);
  EXPECT_LT(CompareNativeVsSql(m, {}, 19), kTol);
}

TEST(Dl2SqlConverter, AttentionMlpMatchesNative) {
  BuilderOptions opts;
  opts.input_size = 6;
  Model m = nn::BuildAttentionMlp(opts);
  EXPECT_LT(CompareNativeVsSql(m, {}, 23), kTol);
}

TEST(Dl2SqlConverter, PreJoinMappingMatchesNative) {
  BuilderOptions opts;
  opts.input_size = 16;
  opts.base_channels = 4;
  Model m = nn::BuildStudentCnn(opts);
  ConvertOptions c;
  c.prejoin = PreJoinStrategy::kPreJoinMapping;
  EXPECT_LT(CompareNativeVsSql(m, c, 29), kTol);
}

TEST(Dl2SqlConverter, PreJoinFullMatchesNative) {
  BuilderOptions opts;
  opts.input_size = 16;
  opts.base_channels = 4;
  Model m = nn::BuildStudentCnn(opts);
  ConvertOptions c;
  c.prejoin = PreJoinStrategy::kPreJoinFull;
  EXPECT_LT(CompareNativeVsSql(m, c, 31), kTol);
}

// BN folding finds its conv's tables by what the converter emitted, not by
// matching table names: a prefix that itself contains "bias", "conv" or
// "pjk" (the engines name tables after the nUDF) must fold the same way.
TEST(Dl2SqlConverter, PreJoinFullFoldsBnWhateverTheTablePrefix) {
  BuilderOptions opts;
  opts.input_size = 16;
  opts.base_channels = 4;
  Model m = nn::BuildStudentCnn(opts);
  for (const char* prefix :
       {"nn_nudf_bias_check0", "nn_nudf_conv_pjk1", "nn_nudf_detect_00"}) {
    for (bool batched : {false, true}) {
      ConvertOptions c;
      c.table_prefix = prefix;
      c.prejoin = PreJoinStrategy::kPreJoinFull;
      c.batched = batched;
      EXPECT_LT(CompareNativeVsSql(m, c, 31), kTol)
          << prefix << (batched ? " batched" : "");
    }
  }
}

// A conv without a bias followed by BN: the folded conv gains a bias table
// that holds BN's shift.
TEST(Dl2SqlConverter, PreJoinFullFoldsBnIntoAConvWithoutBias) {
  Rng rng(9);
  Model m("nobias", Shape({3, 8, 8}), {"a", "b", "c"});
  m.AddLayer(std::make_shared<nn::Conv2d>(
      "conv", Tensor::Random(Shape({4, 3, 3, 3}), &rng, 0.5f), std::nullopt,
      /*stride=*/1, /*pad=*/1));
  auto bn = std::make_shared<nn::BatchNorm>("bn", 4);
  bn->RandomizeStats(&rng);
  m.AddLayer(bn);
  m.AddLayer(std::make_shared<nn::ReluLayer>("relu"));
  m.AddLayer(std::make_shared<nn::Flatten>("flatten"));
  m.AddLayer(std::make_shared<nn::Linear>("fc", 4 * 8 * 8, 3, &rng));
  for (auto prejoin : {PreJoinStrategy::kNone, PreJoinStrategy::kPreJoinFull}) {
    for (bool batched : {false, true}) {
      ConvertOptions c;
      c.prejoin = prejoin;
      c.batched = batched;
      EXPECT_LT(CompareNativeVsSql(m, c, 47), 1e-4)
          << "prejoin " << static_cast<int>(prejoin)
          << (batched ? " batched" : "");
    }
  }
  // The folded form runs no BN statement.
  db::Database db;
  ConvertOptions c;
  c.prejoin = PreJoinStrategy::kPreJoinFull;
  auto converted = ConvertModel(m, c, &db);
  ASSERT_TRUE(converted.ok()) << converted.status().ToString();
  for (const auto& op : converted->ops) {
    if (op.kind == nn::LayerKind::kBatchNorm) {
      EXPECT_TRUE(op.runtime_sql.empty());
    }
  }
}

TEST(Dl2SqlConverter, ReluAsUpdateMatchesNative) {
  BuilderOptions opts;
  opts.input_size = 12;
  opts.base_channels = 3;
  Model m = nn::BuildStudentCnn(opts);
  ConvertOptions c;
  c.relu_as_update = true;
  EXPECT_LT(CompareNativeVsSql(m, c, 37), kTol);
}

/// Parameterized geometry sweep for a single conv layer: kernel size,
/// stride, padding, channel combinations.
struct ConvCase {
  int64_t in_c, size, out_c, k, stride, pad;
};

class ConvGeometryTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGeometryTest, SingleConvMatchesNative) {
  const ConvCase c = GetParam();
  Rng rng(c.k * 100 + c.stride * 10 + c.pad);
  Model m("conv_probe", Shape({c.in_c, c.size, c.size}), {"a", "b"});
  m.AddLayer(std::make_shared<nn::Conv2d>("conv", c.in_c, c.out_c, c.k,
                                          c.stride, c.pad, &rng));
  EXPECT_LT(CompareNativeVsSql(m, {}, 41), kTol);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGeometryTest,
    ::testing::Values(ConvCase{1, 5, 1, 3, 1, 0}, ConvCase{1, 5, 2, 3, 2, 0},
                      ConvCase{3, 8, 4, 3, 1, 1}, ConvCase{2, 9, 3, 5, 2, 2},
                      ConvCase{4, 7, 2, 1, 1, 0}, ConvCase{2, 6, 5, 3, 3, 1},
                      ConvCase{3, 10, 3, 5, 1, 2}, ConvCase{1, 12, 8, 3, 2, 1}));

TEST(Dl2SqlConverter, DeconvMatchesNative) {
  Rng rng(5);
  Model m("deconv_probe", Shape({2, 5, 5}), {"a"});
  m.AddLayer(std::make_shared<nn::Deconv2d>("deconv", 2, 3, 3, 2, 1, &rng));
  EXPECT_LT(CompareNativeVsSql(m, {}, 43), kTol);
}

TEST(Dl2SqlConverter, PaperBatchStatsModeRuns) {
  // Q4-faithful BN: runs and produces a normalized (mean~0) activation; it
  // intentionally does NOT match running-stats inference.
  Rng rng(5);
  Model m("bnprobe", Shape({2, 6, 6}), {"a"});
  m.AddLayer(std::make_shared<nn::Conv2d>("conv", 2, 2, 3, 1, 1, &rng));
  auto bn = std::make_shared<nn::BatchNorm>("bn", 2);
  bn->RandomizeStats(&rng);
  m.AddLayer(bn);

  db::Database db;
  ConvertOptions c;
  c.bn_mode = BnSqlMode::kPaperBatchStats;
  auto converted = ConvertModel(m, c, &db);
  ASSERT_TRUE(converted.ok()) << converted.status().ToString();
  Dl2SqlRunner runner(&db, std::move(converted).ValueOrDie());
  Tensor input = Tensor::Random(m.input_shape(), &rng, 1.0f);
  auto out = runner.Infer(input);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  double mean = 0;
  for (int64_t i = 0; i < out->NumElements(); ++i) mean += out->at(i);
  mean /= static_cast<double>(out->NumElements());
  EXPECT_NEAR(mean, 0.0, 0.05);
}

TEST(Dl2SqlConverter, MappingTableMatchesAlgorithm2Shape) {
  LayerGeometry g;
  g.in_c = 1;
  g.in_h = 5;
  g.in_w = 5;
  g.kernel = 3;
  g.stride = 2;
  g.pad = 0;
  g.out_h = 2;
  g.out_w = 2;
  g.out_c = 2;
  db::Table t = GenerateMappingTable(g);
  // 4 windows x 9 patch positions, no padding -> 36 rows (Fig. 3's example).
  EXPECT_EQ(t.num_rows(), 36);
  // TupleIDs must be valid input positions.
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    const int64_t tid = t.column(2).ints()[static_cast<size_t>(r)];
    EXPECT_GE(tid, 0);
    EXPECT_LT(tid, 25);
  }
}

TEST(Dl2SqlConverter, KernelTableShape) {
  Rng rng(3);
  Tensor w = Tensor::Random(Shape({2, 3, 3, 3}), &rng);
  db::Table t = GenerateKernelTable(w);
  EXPECT_EQ(t.num_rows(), 2 * 3 * 3 * 3);
}

TEST(Dl2SqlConverter, StorageBytesGrowWithDepth) {
  BuilderOptions opts;
  opts.input_size = 16;
  opts.base_channels = 4;
  db::Database db1, db2;
  auto m1 = nn::BuildResNet(5, opts);
  auto m2 = nn::BuildResNet(9, opts);
  ASSERT_TRUE(m1.ok() && m2.ok());
  ConvertOptions c1{"m1", PreJoinStrategy::kNone, BnSqlMode::kRunningStats,
                    false};
  ConvertOptions c2{"m2", PreJoinStrategy::kNone, BnSqlMode::kRunningStats,
                    false};
  auto conv1 = ConvertModel(*m1, c1, &db1);
  auto conv2 = ConvertModel(*m2, c2, &db2);
  ASSERT_TRUE(conv1.ok() && conv2.ok());
  auto b1 = StaticStorageBytes(*conv1, db1);
  auto b2 = StaticStorageBytes(*conv2, db2);
  ASSERT_TRUE(b1.ok() && b2.ok());
  EXPECT_GT(*b2, *b1);
}

}  // namespace
}  // namespace dl2sql::core
