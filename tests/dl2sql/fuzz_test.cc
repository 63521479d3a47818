/// \file fuzz_test.cc
/// \brief Randomized property test: random valid layer stacks must translate
/// to SQL and match native inference, across pre-join strategies, batch
/// mode, table prefixes and convs with and without a bias. Exercises the
/// converter's shape handling far beyond the curated architectures.
#include <gtest/gtest.h>

#include "dl2sql/pipeline.h"
#include "nn/blocks.h"
#include "nn/layers.h"
#include "nn/model.h"

namespace dl2sql::core {
namespace {

/// Builds a random model: conv/bn/relu/pool/identity-block body over a CHW
/// activation, then flatten + fc + softmax.
nn::Model RandomModel(uint64_t seed) {
  Rng rng(seed);
  const int64_t in_c = rng.UniformInt(1, 3);
  const int64_t size = rng.UniformInt(8, 14);
  nn::Model m("fuzz_" + std::to_string(seed), Shape({in_c, size, size}),
              {"a", "b", "c"});
  Shape shape({in_c, size, size});
  const int body_ops = static_cast<int>(rng.UniformInt(1, 5));
  for (int i = 0; i < body_ops; ++i) {
    const std::string tag = "op" + std::to_string(i);
    switch (rng.UniformInt(0, 4)) {
      case 0: {  // conv with random geometry that keeps the map non-empty
        const int64_t out_c = rng.UniformInt(1, 4);
        const int64_t k = 1 + 2 * rng.UniformInt(0, 1);  // 1 or 3
        const int64_t stride = rng.UniformInt(1, 2);
        const int64_t pad = k / 2;
        // Some convs have no bias (explicit weights, as a serialized model
        // with hp[5] == 0 loads), so a following BN must supply one.
        auto conv =
            rng.Bernoulli(0.5)
                ? std::make_shared<nn::Conv2d>(tag, shape[0], out_c, k, stride,
                                               pad, &rng)
                : std::make_shared<nn::Conv2d>(
                      tag, Tensor::Random(Shape({out_c, shape[0], k, k}), &rng),
                      std::nullopt, stride, pad);
        auto s = conv->OutputShape(shape);
        if (!s.ok() || (*s)[1] < 2) continue;  // keep room for later pooling
        shape = *s;
        m.AddLayer(conv);
        break;
      }
      case 1: {  // bn
        auto bn = std::make_shared<nn::BatchNorm>(tag, shape[0]);
        bn->RandomizeStats(&rng);
        m.AddLayer(bn);
        break;
      }
      case 2:
        m.AddLayer(std::make_shared<nn::ReluLayer>(tag));
        break;
      case 3: {  // pool
        if (shape[1] < 2 || shape[2] < 2) continue;
        auto pool = rng.Bernoulli(0.5)
                        ? nn::LayerPtr(std::make_shared<nn::MaxPool2d>(tag, 2, 2))
                        : nn::LayerPtr(std::make_shared<nn::AvgPool2d>(tag, 2, 2));
        auto s = pool->OutputShape(shape);
        if (!s.ok()) continue;
        shape = *s;
        m.AddLayer(pool);
        break;
      }
      case 4: {  // identity block
        m.AddLayer(std::make_shared<nn::IdentityBlock>(tag, shape[0], 3, 2,
                                                       &rng));
        break;
      }
    }
  }
  m.AddLayer(std::make_shared<nn::Flatten>("flatten"));
  m.AddLayer(std::make_shared<nn::Linear>("fc", shape.NumElements(), 3, &rng));
  m.AddLayer(std::make_shared<nn::SoftmaxLayer>("softmax"));
  return m;
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, RandomModelMatchesNative) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  nn::Model model = RandomModel(seed);
  ASSERT_TRUE(model.OutputShape().ok());

  Rng rng(seed * 31 + 1);
  Tensor input = Tensor::Random(model.input_shape(), &rng, 1.0f);
  auto device = Device::Create(DeviceKind::kEdgeCpu);
  auto native = model.Forward(input, device.get());
  ASSERT_TRUE(native.ok()) << native.status().ToString();
  auto flat = native->Reshape(Shape({native->NumElements()}));

  // Every strategy x batch combination must agree with native inference,
  // whatever the table prefix holds: the engines name tables after the nUDF,
  // and table names must never steer the conversion.
  const PreJoinStrategy kStrategies[] = {PreJoinStrategy::kNone,
                                         PreJoinStrategy::kPreJoinFull};
  const char* const kPrefixes[] = {"nn_nudf_bias_a0", "nn_conv_pjk1",
                                   "m_bias_conv_pjk"};
  for (PreJoinStrategy strategy : kStrategies) {
    for (bool batched : {false, true}) {
      db::Database db;
      ConvertOptions opts;
      opts.table_prefix = kPrefixes[seed % 3];
      opts.prejoin = strategy;
      opts.batched = batched;
      auto converted = ConvertModel(model, opts, &db);
      ASSERT_TRUE(converted.ok())
          << "seed " << seed << ": " << converted.status().ToString();
      Dl2SqlRunner runner(&db, std::move(converted).ValueOrDie());
      auto out = runner.Infer(input);
      ASSERT_TRUE(out.ok()) << "seed " << seed << " strategy "
                            << static_cast<int>(strategy) << " batched "
                            << batched << ": " << out.status().ToString();
      auto diff = MaxAbsDiff(*flat, *out);
      ASSERT_TRUE(diff.ok());
      EXPECT_LT(*diff, 2e-3)
          << "seed " << seed << " strategy " << static_cast<int>(strategy)
          << " batched " << batched << "\n"
          << model.Summary();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(1, 25));

}  // namespace
}  // namespace dl2sql::core
