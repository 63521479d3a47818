/// \file cost_model.h
/// \brief Cost/cardinality estimation interface plus the default ("blind")
/// DBMS model.
///
/// Section IV of the paper: the stock DBMS optimizer "cannot precisely
/// estimate the size of intermediate results generated by the neural
/// operators. It normally over-estimates the number of join results which
/// will be exaggerated exponentially after several iterations of neural
/// operator computations." DefaultCostModel reproduces that behaviour: with
/// no ANALYZE'd statistics on the (freshly generated) feature-map tables, it
/// falls back to textbook magic constants for join/filter selectivities, so
/// its error compounds layer over layer. The customized model of Section IV-A
/// lives in src/dl2sql/cost_model.h and plugs into the same interface.
///
/// Costs are abstract I/O+CPU units (1 unit ~= one row touch); benchmarks
/// convert units to seconds with the calibration ratio
/// r = seq_scan_time / seq_scan_cost exactly as Fig. 12's caption describes.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "db/catalog.h"
#include "db/plan.h"
#include "db/udf.h"

namespace dl2sql::db {

/// \brief Estimation context: catalog stats plus optional assumed
/// cardinalities for tables that do not exist yet (used when costing a
/// generated multi-statement pipeline ahead of execution).
struct CostContext {
  const Catalog* catalog = nullptr;
  const UdfRegistry* udfs = nullptr;
  /// Overrides/pre-supplies row counts by (lower-cased) table name.
  std::map<std::string, double> assumed_rows;
  /// Calibration: wall seconds per cost unit (for mixing modeled nUDF seconds
  /// into unit-based costs). Re-measured against the vectorized
  /// batch-at-a-time engine: micro_db scan-filter/group-by sustain
  /// ~120-150M row touches/s single-threaded, i.e. ~8e-9 s per unit (the
  /// interpreted row path this default was first calibrated on ran ~2e-8).
  double seconds_per_unit = 8e-9;
  /// Effective intra-query parallelism degree (the executing device's thread
  /// count). Per-row CPU terms of morsel-parallel operators (filter, project,
  /// join build/probe) are divided by this; scan (bandwidth bound),
  /// aggregation and sort (serial) are not. 1.0 = the serial kEdgeCpu model.
  double parallelism = 1.0;
};

/// \brief Interface: annotates a plan tree with est_rows / est_cost.
class CostModel {
 public:
  virtual ~CostModel() = default;

  /// Fills node->est_rows and node->est_cost (cumulative) bottom-up.
  virtual Status Annotate(PlanNode* node, const CostContext& ctx) const = 0;

  /// Selectivity of a single predicate against a child with known schema.
  virtual double EstimateSelectivity(const Expr& pred, const PlanNode& child,
                                     const CostContext& ctx) const = 0;

  /// Convenience: annotate and return the root's cumulative cost.
  Result<double> TotalCost(PlanNode* node, const CostContext& ctx) const {
    DL2SQL_RETURN_NOT_OK(Annotate(node, ctx));
    return node->est_cost;
  }
};

/// \brief The stock DBMS estimator.
///
/// Magic constants (documented so tests can assert against them):
///  - equality predicate without stats: selectivity 0.1
///  - range predicate without stats: 0.3 (with min/max stats: interpolated)
///  - join without key NDV stats: |L|*|R| * 0.1
///  - join with NDV stats: |L|*|R| / max(ndv_l, ndv_r)
///  - group-by without stats: |input| * 0.2 groups
///  - neural predicates: treated as an opaque function -> selectivity 0.33,
///    zero modeled compute (the blind spot hint rules fix).
class DefaultCostModel : public CostModel {
 public:
  Status Annotate(PlanNode* node, const CostContext& ctx) const override;
  double EstimateSelectivity(const Expr& pred, const PlanNode& child,
                             const CostContext& ctx) const override;

  static constexpr double kDefaultEqSelectivity = 0.1;
  static constexpr double kDefaultRangeSelectivity = 0.3;
  static constexpr double kDefaultJoinSelectivity = 0.1;
  static constexpr double kDefaultGroupRatio = 0.2;
  static constexpr double kOpaqueFnSelectivity = 0.33;

 private:
  /// Estimated input rows for a scan node.
  double ScanRows(const PlanNode& node, const CostContext& ctx) const;
};

/// Pulls stats for a (possibly qualified) column of a scan subtree, walking
/// to the underlying base table. Returns nullptr when unavailable.
const ColumnStats* FindColumnStats(const PlanNode& node, const Expr& column_ref,
                                   const CostContext& ctx);

}  // namespace dl2sql::db
