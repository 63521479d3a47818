/// \file cost_model_test.cc
/// \brief The customized cost model (Eqs. 3-8) vs the blind default:
/// hand-checked formulas, compounding-error property, and calibration.
#include <gtest/gtest.h>

#include "dl2sql/cost_model.h"
#include "nn/builders.h"
#include "nn/layers.h"

namespace dl2sql::core {
namespace {

nn::Model SingleConvModel(int64_t channels, int64_t size, int64_t k,
                          int64_t stride, int64_t pad, int64_t out_c) {
  Rng rng(9);
  nn::Model m("probe", Shape({channels, size, size}), {"a", "b"});
  m.AddLayer(std::make_shared<nn::Conv2d>("conv", channels, out_c, k, stride,
                                          pad, &rng));
  return m;
}

TEST(CustomCostModelTest, ConvFormulasMatchHandComputation) {
  // 1-channel 5x5 input, 3x3 kernel, stride 2, no padding, 2 output kernels:
  // the worked example of Fig. 3/4.
  db::Database db;
  auto converted = ConvertModel(SingleConvModel(1, 5, 3, 2, 0, 2), {}, &db);
  ASSERT_TRUE(converted.ok());
  auto est = EstimateCustom(*converted);
  ASSERT_EQ(est.size(), 1u);
  // k_in = 9, out = 2x2 windows -> T_in = 4 * 9 = 36 (Fig. 3's 36 rows).
  // S_J = 1/9, k_out = 9*2=18 -> T_out = 36 * (1/9) * 18 = 72 (Eq. 5).
  // Cost (Eq. 7 + reshape scan): T_in + T_out*S_J*k_in + T_out + T_in.
  const double t_in = 36, t_out = 72;
  const double expected = t_in + t_out * (1.0 / 9.0) * 9 + t_out + t_in;
  EXPECT_DOUBLE_EQ(est[0].cost_units, expected);
  EXPECT_DOUBLE_EQ(est[0].output_rows, 2 * 2 * 2.0);  // out_c*out_h*out_w
}

TEST(CustomCostModelTest, CostGrowsWithKernelAndMapSize) {
  db::Database db1, db2, db3;
  auto small = ConvertModel(SingleConvModel(3, 16, 1, 1, 0, 3),
                            {"a", PreJoinStrategy::kNone,
                             BnSqlMode::kRunningStats, false},
                            &db1);
  auto mid = ConvertModel(SingleConvModel(3, 16, 3, 1, 1, 3),
                          {"b", PreJoinStrategy::kNone,
                           BnSqlMode::kRunningStats, false},
                          &db2);
  auto big = ConvertModel(SingleConvModel(3, 32, 3, 1, 1, 3),
                          {"c", PreJoinStrategy::kNone,
                           BnSqlMode::kRunningStats, false},
                          &db3);
  ASSERT_TRUE(small.ok() && mid.ok() && big.ok());
  EXPECT_LT(TotalUnits(EstimateCustom(*small)), TotalUnits(EstimateCustom(*mid)));
  EXPECT_LT(TotalUnits(EstimateCustom(*mid)), TotalUnits(EstimateCustom(*big)));
}

TEST(DefaultEstimateTest, OverestimatesAndCompounds) {
  // The blind model's error must grow (multiplicatively) with layer count —
  // the paper's "exaggerated exponentially" observation.
  nn::BuilderOptions b;
  b.input_size = 16;
  b.base_channels = 4;
  nn::Model model = nn::BuildStudentCnn(b);
  db::Database db;
  auto converted = ConvertModel(model, {}, &db);
  ASSERT_TRUE(converted.ok());
  auto blind = EstimateDefault(*converted, &db);
  ASSERT_TRUE(blind.ok());
  auto custom = EstimateCustom(*converted);
  ASSERT_EQ(blind->size(), custom.size());

  // Total: grossly overestimated.
  EXPECT_GT(TotalUnits(*blind), 100 * TotalUnits(custom));
  // Per-conv overestimation ratio increases layer over layer.
  std::vector<double> ratios;
  for (size_t i = 0; i < custom.size(); ++i) {
    if (custom[i].kind == nn::LayerKind::kConv2d && custom[i].cost_units > 0) {
      ratios.push_back((*blind)[i].cost_units / custom[i].cost_units);
    }
  }
  ASSERT_GE(ratios.size(), 3u);
  EXPECT_GT(ratios[1], ratios[0]);
  EXPECT_GT(ratios[2], ratios[1]);
}

TEST(DefaultEstimateTest, LeavesNoShellTablesBehind) {
  nn::BuilderOptions b;
  b.input_size = 16;
  b.base_channels = 2;
  nn::Model model = nn::BuildStudentCnn(b);
  db::Database db;
  auto converted = ConvertModel(model, {}, &db);
  ASSERT_TRUE(converted.ok());
  const size_t before = db.catalog().TableNames().size();
  ASSERT_TRUE(EstimateDefault(*converted, &db).ok());
  EXPECT_EQ(db.catalog().TableNames().size(), before);
}

TEST(DefaultEstimateTest, FeatureMapSchemaFollowsTheSuffix) {
  // Only the converter's "_fm" reshape tables get the (MatrixID, OrderID)
  // shell schema, whatever the table prefix contains.
  nn::BuilderOptions b;
  b.input_size = 8;
  b.base_channels = 2;
  nn::Model model = nn::BuildStudentCnn(b);
  for (const std::string prefix : {"x_fm", "nn_fmt0"}) {
    db::Database db;
    ConvertOptions options;
    options.table_prefix = prefix;
    auto converted = ConvertModel(model, options, &db);
    ASSERT_TRUE(converted.ok()) << prefix;
    auto blind = EstimateDefault(*converted, &db);
    EXPECT_TRUE(blind.ok()) << prefix << ": " << blind.status().ToString();
  }
}

TEST(CustomCostModelTest, LinearOpsScanOnce) {
  Rng rng(4);
  nn::Model m("linear_ops", Shape({2, 8, 8}), {"a", "b"});
  auto bn = std::make_shared<nn::BatchNorm>("bn", 2);
  bn->RandomizeStats(&rng);
  m.AddLayer(bn);
  m.AddLayer(std::make_shared<nn::ReluLayer>("relu"));
  db::Database db;
  auto converted = ConvertModel(m, {}, &db);
  ASSERT_TRUE(converted.ok());
  auto est = EstimateCustom(*converted);
  ASSERT_EQ(est.size(), 2u);
  EXPECT_DOUBLE_EQ(est[0].cost_units, 2 * 8 * 8);
  EXPECT_DOUBLE_EQ(est[1].cost_units, 2 * 8 * 8);
}

TEST(CalibrationTest, ProducesPlausibleSecondsPerUnit) {
  db::Database db;
  auto r = CalibrateSecondsPerUnit(&db, 50000);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(*r, 1e-11);
  EXPECT_LT(*r, 1e-5);
  // The calibration table is cleaned up.
  EXPECT_FALSE(db.catalog().HasTable("__calib"));
}

}  // namespace
}  // namespace dl2sql::core
