/// \file optimizer.h
/// \brief Plan rewrites: predicate pushdown, equi-join extraction, join
/// reordering, column pruning, and the paper's nUDF hint rules (Section
/// IV-B).
#pragma once

#include <memory>

#include "db/cost_model.h"
#include "db/plan.h"

namespace dl2sql::db {

/// \brief Selectivity/cost model that understands nUDFs: predicate
/// selectivities come from the offline class histograms (Eq. 10) and neural
/// filter conjuncts are charged per-row model cost. This is the "customized
/// cost model" half of DL2SQL-OP; the conv-cardinality formulas (Eqs. 3-8)
/// live in src/dl2sql/cost_model.h for pipeline-level estimation.
class NeuralAwareCostModel : public DefaultCostModel {
 public:
  Status Annotate(PlanNode* node, const CostContext& ctx) const override;
  double EstimateSelectivity(const Expr& pred, const PlanNode& child,
                             const CostContext& ctx) const override;
};

/// Options controlling which rewrites run.
struct OptimizerOptions {
  bool enable_pushdown = true;
  /// Greedy reordering of 3+-relation inner-join chains by estimated
  /// cardinality (smallest-first, equi-connected preferred).
  bool enable_join_reorder = true;
  /// Hint rules for nUDF placement/ordering and symmetric hash joins.
  /// Disabled = the plain engine behaviour the paper calls "DL2SQL" /
  /// "DB-UDF"; enabled = "DL2SQL-OP".
  bool enable_nudf_hints = false;
  /// Model used both for hint decisions and final annotation.
  std::shared_ptr<const CostModel> cost_model;
};

/// \brief Rewrites a bound plan tree in place (returns the new root).
class Optimizer {
 public:
  Optimizer(OptimizerOptions options, CostContext ctx);

  /// Pushdown and hint placement, join reordering, then column pruning
  /// (each scan outputs only the columns the plan above it reads; the
  /// root's output schema never changes), then cost annotation.
  Result<PlanPtr> Optimize(PlanPtr plan);

 private:
  /// Annotates the final tree and flags hash joins whose build side should
  /// be the (smaller) left child.
  Status ChooseBuildSides(PlanNode* node) const;

  /// Recursive rewrite (pushdown + hint placement) without the final
  /// annotation pass.
  Result<PlanPtr> OptimizeNode(PlanPtr plan);

  /// Greedy reordering of a join chain rooted at `node` (post-pushdown).
  /// Returns the (possibly unchanged) subtree; the output column order is
  /// preserved via a restoring projection.
  Result<PlanPtr> ReorderJoins(PlanPtr node);
  /// Recursive pushdown. `preds` are conjuncts bound against node's output
  /// schema; returns a subtree with them placed as low as legal.
  Result<PlanPtr> PushDown(PlanPtr node, std::vector<ExprPtr> preds);

  /// Applies hint rule 1 (scan-time vs delayed nUDF evaluation) and the
  /// multi-nUDF ordering rule to the query's neural conjuncts.
  Result<PlanPtr> PlaceNeuralPredicates(PlanPtr plan,
                                        std::vector<ExprPtr> neural_preds);

  bool IsNeuralExpr(const Expr& e) const;

  OptimizerOptions options_;
  CostContext ctx_;
  std::shared_ptr<const CostModel> model_;
};

/// Clears bound indexes so an expression can be re-bound after a schema
/// change (used when predicates move across operators).
void UnbindExpr(Expr* e);

/// Rebases bound column indexes by `delta` (moving a predicate from a join's
/// output scope into its right child scope).
void ShiftBoundIndexes(Expr* e, int delta);

}  // namespace dl2sql::db
