/// \file cost_model.h
/// \brief The customized DL2SQL cost model (Section IV-A, Eqs. 3-8) and the
/// blind-baseline estimator it is compared against in Figs. 12-13.
///
/// Cost unit convention matches db::CostModel: 1 unit ~= one row touch.
/// Benchmarks convert units to wall time with r = seq_scan_time /
/// seq_scan_cost, exactly as Fig. 12's caption prescribes.
#pragma once

#include "dl2sql/converter.h"

namespace dl2sql::core {

/// Estimated cardinality + cost of one pipeline op.
struct OpCostEstimate {
  std::string label;
  nn::LayerKind kind = nn::LayerKind::kConv2d;
  double output_rows = 0;
  double cost_units = 0;
};

/// \brief Customized estimator: exact neural-operator formulas.
///
/// For a conv with geometry g:
///   k_in  = k^2 * N_in, k_out = k^2 * N_out            (kernel table sizes)
///   T_in  = H_out * W_out * k_in                        (feature-map card.)
///   S_J   = 1 / k_in                                    (Eq. 4)
///   T_out = T_in * S_J * k_out                          (Eq. 5)
///   C_join = T_in + T_out * k_in                        (Eq. 6)
///   C_cnn  = T_in + T_out * k_in + T_out                (Eq. 7, + mapping)
/// BN/ReLU/Pooling are linear scans of their input feature table; residual
/// adds are linear in the feature size.
std::vector<OpCostEstimate> EstimateCustom(const ConvertedModel& model);

/// \brief What the stock optimizer would predict: every generated statement
/// is planned and annotated with db::DefaultCostModel, chaining each
/// statement's estimated output cardinality into the next statement's
/// assumed input cardinality (temp tables do not exist/have no stats at
/// planning time — the blind spot the paper describes). Statistics for the
/// static parameter tables are real (they exist in the catalog).
Result<std::vector<OpCostEstimate>> EstimateDefault(const ConvertedModel& model,
                                                    db::Database* db);

/// Sum of cost_units over an estimate vector.
double TotalUnits(const std::vector<OpCostEstimate>& estimates);

/// \brief Calibrates seconds-per-cost-unit by timing a sequential scan of a
/// synthetic table with `rows` rows (cost model charges `rows` units).
Result<double> CalibrateSecondsPerUnit(db::Database* db, int64_t rows = 200000);

}  // namespace dl2sql::core
