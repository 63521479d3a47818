#include "db/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace dl2sql::db {

namespace {

/// Base (unqualified) column name of a bound/unbound reference.
std::string RefBaseName(const Expr& e) {
  const size_t dot = e.column_name.rfind('.');
  return dot == std::string::npos ? e.column_name
                                  : e.column_name.substr(dot + 1);
}

}  // namespace

const ColumnStats* FindColumnStats(const PlanNode& node, const Expr& column_ref,
                                   const CostContext& ctx) {
  if (column_ref.kind != ExprKind::kColumnRef || ctx.catalog == nullptr) {
    return nullptr;
  }
  // Walk down through row-preserving nodes to the scan.
  const PlanNode* cur = &node;
  while (cur->kind != PlanKind::kScan) {
    if (cur->children.size() != 1) return nullptr;
    cur = cur->children[0].get();
  }
  const TableStats* stats = ctx.catalog->GetStats(cur->table_name);
  if (stats == nullptr) return nullptr;
  return stats->Find(RefBaseName(column_ref));
}

double DefaultCostModel::ScanRows(const PlanNode& node,
                                  const CostContext& ctx) const {
  auto it = ctx.assumed_rows.find(ToLower(node.table_name));
  if (it != ctx.assumed_rows.end()) return it->second;
  if (ctx.catalog != nullptr) {
    auto table = ctx.catalog->GetTable(node.table_name);
    if (table.ok()) return static_cast<double>((*table)->num_rows());
  }
  // Unknown relation (not created yet): a textbook default.
  return 1000.0;
}

double DefaultCostModel::EstimateSelectivity(const Expr& pred,
                                             const PlanNode& child,
                                             const CostContext& ctx) const {
  std::vector<ExprPtr> conjuncts;
  // EstimateSelectivity may receive a conjunction; decompose and multiply.
  auto self = std::make_shared<Expr>(pred);
  SplitConjuncts(self, &conjuncts);
  if (conjuncts.size() > 1) {
    double sel = 1.0;
    for (const auto& c : conjuncts) {
      sel *= EstimateSelectivity(*c, child, ctx);
    }
    return sel;
  }

  if (pred.kind == ExprKind::kUnary && pred.un_op == UnaryOp::kNot) {
    return 1.0 - EstimateSelectivity(*pred.children[0], child, ctx);
  }
  if (pred.kind == ExprKind::kBinary && pred.bin_op == BinaryOp::kOr) {
    const double a = EstimateSelectivity(*pred.children[0], child, ctx);
    const double b = EstimateSelectivity(*pred.children[1], child, ctx);
    return std::min(1.0, a + b - a * b);
  }
  if (pred.kind == ExprKind::kBinary && IsComparison(pred.bin_op)) {
    const Expr& l = *pred.children[0];
    const Expr& r = *pred.children[1];
    // Opaque functions (including nUDFs) on either side: blind default.
    if (l.kind == ExprKind::kFuncCall || r.kind == ExprKind::kFuncCall) {
      return kOpaqueFnSelectivity;
    }
    const Expr* col = l.kind == ExprKind::kColumnRef ? &l : nullptr;
    const Expr* lit = r.kind == ExprKind::kLiteral ? &r : nullptr;
    if (col == nullptr && r.kind == ExprKind::kColumnRef) col = &r;
    if (lit == nullptr && l.kind == ExprKind::kLiteral) lit = &l;
    if (col != nullptr && lit != nullptr) {
      const ColumnStats* cs = FindColumnStats(child, *col, ctx);
      if (pred.bin_op == BinaryOp::kEq) {
        if (cs != nullptr && cs->num_distinct > 0) {
          return 1.0 / static_cast<double>(cs->num_distinct);
        }
        return kDefaultEqSelectivity;
      }
      if (pred.bin_op == BinaryOp::kNe) {
        if (cs != nullptr && cs->num_distinct > 0) {
          return 1.0 - 1.0 / static_cast<double>(cs->num_distinct);
        }
        return 1.0 - kDefaultEqSelectivity;
      }
      // Range: interpolate within [min, max] when numeric stats exist.
      if (cs != nullptr && cs->min && cs->max && *cs->max > *cs->min &&
          IsNumeric(lit->literal.type())) {
        const double v = *lit->literal.AsDouble();
        const double lo = *cs->min;
        const double hi = *cs->max;
        double frac = (v - lo) / (hi - lo);
        frac = std::clamp(frac, 0.0, 1.0);
        const bool less = pred.bin_op == BinaryOp::kLt ||
                          pred.bin_op == BinaryOp::kLe;
        const bool col_on_left = col == &l;
        // col < v  -> frac; col > v -> 1-frac; flipped when literal on left.
        const double sel = (less == col_on_left) ? frac : 1.0 - frac;
        return std::clamp(sel, 0.0, 1.0);
      }
      return kDefaultRangeSelectivity;
    }
    return kDefaultRangeSelectivity;
  }
  if (pred.kind == ExprKind::kFuncCall) {
    return kOpaqueFnSelectivity;
  }
  if (pred.kind == ExprKind::kInList) {
    return std::min(
        1.0, kDefaultEqSelectivity *
                 static_cast<double>(pred.children.size() - 1));
  }
  if (pred.kind == ExprKind::kLiteral &&
      pred.literal.type() == DataType::kBool) {
    return pred.literal.bool_value() ? 1.0 : 0.0;
  }
  return 0.5;
}

Status DefaultCostModel::Annotate(PlanNode* node, const CostContext& ctx) const {
  double child_cost = 0;
  for (auto& c : node->children) {
    DL2SQL_RETURN_NOT_OK(Annotate(c.get(), ctx));
    child_cost += c->est_cost;
  }
  // Morsel-parallel operators split their per-row CPU work across the
  // device's workers; scan, aggregation and sort stay serial in the executor.
  const double par = std::max(1.0, ctx.parallelism);
  switch (node->kind) {
    case PlanKind::kScan: {
      node->est_rows = ScanRows(*node, ctx);
      node->est_cost = node->est_rows;  // one unit per row scanned
      return Status::OK();
    }
    case PlanKind::kFilter: {
      const PlanNode& child = *node->children[0];
      const double sel = EstimateSelectivity(*node->predicate, child, ctx);
      node->est_rows = child.est_rows * sel;
      // One unit per input row evaluated; opaque functions cost nothing in
      // the blind model (that is its flaw).
      node->est_cost = child_cost + child.est_rows / par;
      return Status::OK();
    }
    case PlanKind::kProject: {
      const PlanNode& child = *node->children[0];
      node->est_rows = child.est_rows;
      node->est_cost = child_cost + child.est_rows / par;
      return Status::OK();
    }
    case PlanKind::kJoin: {
      const PlanNode& l = *node->children[0];
      const PlanNode& r = *node->children[1];
      double out;
      if (!node->join_is_inner && node->equi_keys.empty()) {
        out = l.est_rows * r.est_rows;
      } else {
        // With NDV stats on an equi key, use the textbook 1/max(ndv) rule;
        // otherwise fall back to the blind default selectivity.
        double stats_sel = 2.0;  // sentinel: >1 means "no stats found"
        for (const auto& [lk, rk] : node->equi_keys) {
          const ColumnStats* ls = FindColumnStats(l, *lk, ctx);
          const ColumnStats* rs = FindColumnStats(r, *rk, ctx);
          const int64_t ndv = std::max(ls != nullptr ? ls->num_distinct : 0,
                                       rs != nullptr ? rs->num_distinct : 0);
          if (ndv > 0) {
            stats_sel = std::min(stats_sel, 1.0 / static_cast<double>(ndv));
          }
        }
        const double sel =
            stats_sel <= 1.0 ? stats_sel : kDefaultJoinSelectivity;
        out = l.est_rows * r.est_rows * sel;
      }
      node->est_rows = out;
      // Hash join: serial build on the right, morsel-parallel probe + emit.
      node->est_cost = child_cost + r.est_rows + (l.est_rows + out) / par;
      return Status::OK();
    }
    case PlanKind::kAggregate: {
      const PlanNode& child = *node->children[0];
      double groups;
      if (node->group_keys.empty()) {
        groups = 1;
      } else {
        double ndv_product = 1;
        bool have_stats = false;
        for (const auto& k : node->group_keys) {
          const ColumnStats* cs = FindColumnStats(child, *k, ctx);
          if (cs != nullptr && cs->num_distinct > 0) {
            ndv_product *= static_cast<double>(cs->num_distinct);
            have_stats = true;
          }
        }
        groups = have_stats ? std::min(ndv_product, child.est_rows)
                            : child.est_rows * kDefaultGroupRatio;
      }
      node->est_rows = std::max(groups, 1.0);
      // Accumulation and emission both run serially.
      node->est_cost = child_cost + child.est_rows + node->est_rows;
      return Status::OK();
    }
    case PlanKind::kSort: {
      const PlanNode& child = *node->children[0];
      node->est_rows = child.est_rows;
      const double n = std::max(child.est_rows, 2.0);
      node->est_cost = child_cost + n * std::log2(n);
      return Status::OK();
    }
    case PlanKind::kLimit: {
      const PlanNode& child = *node->children[0];
      node->est_rows = std::min(child.est_rows,
                                static_cast<double>(node->limit < 0
                                                        ? child.est_rows
                                                        : node->limit));
      node->est_cost = child_cost;
      return Status::OK();
    }
  }
  return Status::InternalError("unhandled plan kind in cost model");
}

}  // namespace dl2sql::db
