#include "db/optimizer.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "db/planner.h"

namespace dl2sql::db {

namespace {

/// Deep-copies a plan subtree including its expressions.
PlanPtr ClonePlan(const PlanPtr& node) {
  auto n = std::make_shared<PlanNode>(*node);
  for (auto& c : n->children) c = ClonePlan(c);
  auto clone_expr = [](ExprPtr& e) {
    if (e != nullptr) e = e->Clone();
  };
  clone_expr(n->predicate);
  clone_expr(n->join_condition);
  for (auto& e : n->exprs) clone_expr(e);
  for (auto& e : n->group_keys) clone_expr(e);
  for (auto& e : n->agg_calls) clone_expr(e);
  for (auto& e : n->sort_keys) clone_expr(e);
  for (auto& [l, r] : n->equi_keys) {
    clone_expr(l);
    clone_expr(r);
  }
  return n;
}

/// Returns [min,max] bound index used in the expression, or nullopt if it has
/// no column refs. Unbound refs poison the result (returns {-1,-1}).
void BoundRange(const Expr& e, int* min_idx, int* max_idx, bool* has_unbound) {
  if (e.kind == ExprKind::kColumnRef) {
    if (e.bound_index < 0) {
      *has_unbound = true;
      return;
    }
    *min_idx = *min_idx < 0 ? e.bound_index : std::min(*min_idx, e.bound_index);
    *max_idx = std::max(*max_idx, e.bound_index);
    return;
  }
  for (const auto& c : e.children) {
    BoundRange(*c, min_idx, max_idx, has_unbound);
  }
}

enum class Side { kLeft, kRight, kBoth, kNone };

Side ClassifySide(const Expr& e, int left_width) {
  int mn = -1, mx = -1;
  bool unbound = false;
  BoundRange(e, &mn, &mx, &unbound);
  if (unbound) return Side::kBoth;  // conservative: keep above the join
  if (mn < 0) return Side::kNone;
  if (mx < left_width) return Side::kLeft;
  if (mn >= left_width) return Side::kRight;
  return Side::kBoth;
}

}  // namespace

void UnbindExpr(Expr* e) {
  if (e->kind == ExprKind::kColumnRef) e->bound_index = -1;
  for (auto& c : e->children) UnbindExpr(c.get());
}

void ShiftBoundIndexes(Expr* e, int delta) {
  if (e->kind == ExprKind::kColumnRef && e->bound_index >= 0) {
    e->bound_index += delta;
  }
  for (auto& c : e->children) ShiftBoundIndexes(c.get(), delta);
}

// ------------------------------------------------------ NeuralAware model ----

namespace {

/// If `pred` is a comparison of an nUDF call against a literal (either
/// order), returns the udf and the tested label; otherwise nullptr.
const ScalarUdf* MatchNeuralComparison(const Expr& pred, const CostContext& ctx,
                                       std::string* label, bool* negated) {
  if (ctx.udfs == nullptr) return nullptr;
  if (pred.kind != ExprKind::kBinary ||
      (pred.bin_op != BinaryOp::kEq && pred.bin_op != BinaryOp::kNe)) {
    return nullptr;
  }
  const Expr* call = nullptr;
  const Expr* lit = nullptr;
  for (int side = 0; side < 2; ++side) {
    const Expr& a = *pred.children[static_cast<size_t>(side)];
    const Expr& b = *pred.children[static_cast<size_t>(1 - side)];
    if (a.kind == ExprKind::kFuncCall && ctx.udfs->IsNeural(a.func_name) &&
        b.kind == ExprKind::kLiteral) {
      call = &a;
      lit = &b;
      break;
    }
  }
  if (call == nullptr) return nullptr;
  auto r = ctx.udfs->Find(call->func_name);
  if (!r.ok()) return nullptr;
  *label = lit->literal.ToString();
  *negated = pred.bin_op == BinaryOp::kNe;
  return *r;
}

/// True if the expression calls any registered neural function.
bool ContainsNeuralCall(const Expr& e, const UdfRegistry* udfs) {
  if (udfs == nullptr) return false;
  if (e.kind == ExprKind::kFuncCall && udfs->IsNeural(e.func_name)) return true;
  for (const auto& c : e.children) {
    if (ContainsNeuralCall(*c, udfs)) return true;
  }
  return false;
}

/// Sum of per-row nUDF cost units across all neural calls in `e`.
double NeuralUnitsPerRow(const Expr& e, const CostContext& ctx) {
  double units = 0;
  if (e.kind == ExprKind::kFuncCall && ctx.udfs != nullptr &&
      ctx.udfs->IsNeural(e.func_name)) {
    auto r = ctx.udfs->Find(e.func_name);
    if (r.ok()) {
      units += (*r)->neural.per_call_cost_sec / ctx.seconds_per_unit;
    }
  }
  for (const auto& c : e.children) units += NeuralUnitsPerRow(*c, ctx);
  return units;
}

}  // namespace

double NeuralAwareCostModel::EstimateSelectivity(const Expr& pred,
                                                 const PlanNode& child,
                                                 const CostContext& ctx) const {
  std::string label;
  bool negated = false;
  const ScalarUdf* udf = MatchNeuralComparison(pred, ctx, &label, &negated);
  if (udf != nullptr) {
    const double p = udf->neural.selectivity.Probability(label);
    return negated ? 1.0 - p : p;
  }
  return DefaultCostModel::EstimateSelectivity(pred, child, ctx);
}

Status NeuralAwareCostModel::Annotate(PlanNode* node,
                                      const CostContext& ctx) const {
  DL2SQL_RETURN_NOT_OK(DefaultCostModel::Annotate(node, ctx));
  // Charge neural predicate work that the blind model ignores.
  if (node->kind == PlanKind::kFilter) {
    const double child_rows = node->children[0]->est_rows;
    const double units = NeuralUnitsPerRow(*node->predicate, ctx);
    if (units > 0) node->est_cost += child_rows * units;
  }
  if (node->kind == PlanKind::kJoin && node->use_symmetric_hash) {
    // nUDF evaluated once per left row during the symmetric join.
    double units = 0;
    for (const auto& [lk, _] : node->equi_keys) {
      units += NeuralUnitsPerRow(*lk, ctx);
    }
    node->est_cost += node->children[0]->est_rows * units;
  }
  if (node->kind == PlanKind::kProject) {
    const double child_rows = node->children[0]->est_rows;
    double units = 0;
    for (const auto& e : node->exprs) units += NeuralUnitsPerRow(*e, ctx);
    if (units > 0) node->est_cost += child_rows * units;
  }
  return Status::OK();
}

// ---------------------------------------------------------------- Optimizer ----

Optimizer::Optimizer(OptimizerOptions options, CostContext ctx)
    : options_(std::move(options)), ctx_(std::move(ctx)) {
  model_ = options_.cost_model;
  if (model_ == nullptr) {
    model_ = options_.enable_nudf_hints
                 ? std::shared_ptr<const CostModel>(
                       std::make_shared<NeuralAwareCostModel>())
                 : std::shared_ptr<const CostModel>(
                       std::make_shared<DefaultCostModel>());
  }
}

bool Optimizer::IsNeuralExpr(const Expr& e) const {
  return ContainsNeuralCall(e, ctx_.udfs);
}

Status Optimizer::ChooseBuildSides(PlanNode* node) const {
  for (auto& c : node->children) {
    DL2SQL_RETURN_NOT_OK(ChooseBuildSides(c.get()));
  }
  if (node->kind == PlanKind::kJoin && !node->equi_keys.empty() &&
      !node->use_symmetric_hash) {
    node->join_build_left =
        node->children[0]->est_rows < node->children[1]->est_rows;
  }
  return Status::OK();
}

namespace {

/// Collects the leaves and (unbound, cloned) join conjuncts of a left-deep
/// inner/cross join chain. Returns false when the chain should not be
/// touched (symmetric joins carry operator-specific semantics).
bool CollectJoinChain(const PlanPtr& node, std::vector<PlanPtr>* leaves,
                      std::vector<ExprPtr>* conjuncts) {
  if (node->kind != PlanKind::kJoin) {
    leaves->push_back(node);
    return true;
  }
  if (node->use_symmetric_hash) return false;
  if (!CollectJoinChain(node->children[0], leaves, conjuncts)) return false;
  if (!CollectJoinChain(node->children[1], leaves, conjuncts)) return false;
  for (const auto& [l, r] : node->equi_keys) {
    ExprPtr eq = Expr::Binary(BinaryOp::kEq, l->Clone(), r->Clone());
    UnbindExpr(eq.get());
    conjuncts->push_back(std::move(eq));
  }
  if (node->join_condition != nullptr) {
    std::vector<ExprPtr> parts;
    SplitConjuncts(node->join_condition, &parts);
    for (auto& p : parts) {
      ExprPtr c = p->Clone();
      UnbindExpr(c.get());
      conjuncts->push_back(std::move(c));
    }
  }
  return true;
}

/// True if every column the expression references binds in `schema`.
bool BindsIn(const Expr& e, const TableSchema& schema) {
  ExprPtr probe = e.Clone();
  UnbindExpr(probe.get());
  return BindExpr(probe.get(), schema).ok();
}

}  // namespace

Result<PlanPtr> Optimizer::ReorderJoins(PlanPtr node) {
  if (node->kind != PlanKind::kJoin) {
    for (auto& c : node->children) {
      DL2SQL_ASSIGN_OR_RETURN(c, ReorderJoins(c));
    }
    return node;
  }
  // A join is a chain root here (parents recurse through non-join nodes).
  std::vector<PlanPtr> leaves;
  std::vector<ExprPtr> conjuncts;
  if (!CollectJoinChain(node, &leaves, &conjuncts) || leaves.size() < 3) {
    for (auto& c : node->children) {
      DL2SQL_ASSIGN_OR_RETURN(c, ReorderJoins(c));
    }
    return node;
  }
  // Reorder within each leaf's own subtree first.
  for (auto& leaf : leaves) {
    DL2SQL_ASSIGN_OR_RETURN(leaf, ReorderJoins(leaf));
  }

  // Estimated cardinality per leaf.
  std::vector<double> rows(leaves.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    DL2SQL_RETURN_NOT_OK(model_->Annotate(leaves[i].get(), ctx_));
    rows[i] = std::max(1.0, leaves[i]->est_rows);
  }

  const TableSchema original_schema = node->output_schema;

  std::vector<bool> used(leaves.size(), false);
  std::vector<bool> placed(conjuncts.size(), false);

  // Start from the smallest leaf.
  size_t start = 0;
  for (size_t i = 1; i < leaves.size(); ++i) {
    if (rows[i] < rows[start]) start = i;
  }
  used[start] = true;
  PlanPtr current = leaves[start];
  double current_rows = rows[start];

  auto applicable = [&](const TableSchema& combined, size_t ci) {
    return !placed[ci] && BindsIn(*conjuncts[ci], combined);
  };

  for (size_t step = 1; step < leaves.size(); ++step) {
    // Pick the leaf minimizing the estimated join output.
    size_t best = leaves.size();
    double best_out = 0;
    bool best_connected = false;
    for (size_t i = 0; i < leaves.size(); ++i) {
      if (used[i]) continue;
      TableSchema combined = current->output_schema;
      for (const auto& f : leaves[i]->output_schema.fields()) {
        combined.AddField(f);
      }
      bool connected = false;
      double sel = 1.0;
      for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
        if (!applicable(combined, ci)) continue;
        if (BindsIn(*conjuncts[ci], current->output_schema) ||
            BindsIn(*conjuncts[ci], leaves[i]->output_schema)) {
          continue;  // single-side: applied later as a residual, not a link
        }
        connected = true;
        // FK-ish default: an equi link collapses the product to ~max side.
        sel *= conjuncts[ci]->bin_op == BinaryOp::kEq &&
                       conjuncts[ci]->kind == ExprKind::kBinary
                   ? 1.0 / std::max(current_rows, rows[i])
                   : DefaultCostModel::kDefaultRangeSelectivity;
      }
      const double out = std::max(1.0, current_rows * rows[i] * sel);
      if (best == leaves.size() || (connected && !best_connected) ||
          (connected == best_connected && out < best_out)) {
        best = i;
        best_out = out;
        best_connected = connected;
      }
    }
    used[best] = true;
    PlanPtr join = MakeJoin(current, leaves[best], /*inner=*/false, nullptr);
    // Attach every now-applicable conjunct: equi pairs when the sides
    // separate, residual condition otherwise.
    const int left_width = current->output_schema.num_fields();
    std::vector<ExprPtr> residual;
    for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
      if (!applicable(join->output_schema, ci)) continue;
      placed[ci] = true;
      ExprPtr bound = conjuncts[ci]->Clone();
      DL2SQL_RETURN_NOT_OK(BindExpr(bound.get(), join->output_schema));
      bool as_equi = false;
      if (bound->kind == ExprKind::kBinary && bound->bin_op == BinaryOp::kEq) {
        const Side sa = ClassifySide(*bound->children[0], left_width);
        const Side sb = ClassifySide(*bound->children[1], left_width);
        if (sa == Side::kLeft && sb == Side::kRight) {
          ExprPtr rk = bound->children[1];
          ShiftBoundIndexes(rk.get(), -left_width);
          join->equi_keys.emplace_back(bound->children[0], std::move(rk));
          as_equi = true;
        } else if (sa == Side::kRight && sb == Side::kLeft) {
          ExprPtr rk = bound->children[0];
          ShiftBoundIndexes(rk.get(), -left_width);
          join->equi_keys.emplace_back(bound->children[1], std::move(rk));
          as_equi = true;
        }
      }
      if (as_equi) {
        join->join_is_inner = true;
      } else {
        residual.push_back(std::move(bound));
      }
    }
    if (!residual.empty()) {
      join->join_is_inner = true;
      join->join_condition = CombineConjuncts(residual);
    }
    current = std::move(join);
    current_rows = best_out;
  }

  // Restore the original column order for the operators above.
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  for (int i = 0; i < original_schema.num_fields(); ++i) {
    const std::string& name = original_schema.field(i).name;
    DL2SQL_ASSIGN_OR_RETURN(int idx, current->output_schema.Find(name));
    exprs.push_back(Expr::BoundCol(idx, name));
    names.push_back(name);
  }
  return MakeProject(std::move(current), std::move(exprs), std::move(names),
                     original_schema);
}

namespace {

// ------------------------------------------------------------ pruning ----

/// Flags in `used` (one flag per column of `e`'s scope) every column `e`
/// reads. An unbound reference resolves by name at run time, so it keeps
/// every column of its scope.
void MarkReads(const Expr& e, std::vector<bool>* used) {
  if (e.kind == ExprKind::kColumnRef) {
    if (e.bound_index < 0 ||
        e.bound_index >= static_cast<int>(used->size())) {
      used->assign(used->size(), true);
    } else {
      (*used)[static_cast<size_t>(e.bound_index)] = true;
    }
    return;
  }
  for (const auto& c : e.children) MarkReads(*c, used);
}

bool IsIdentity(const std::vector<int>& map) {
  for (size_t i = 0; i < map.size(); ++i) {
    if (map[i] != static_cast<int>(i)) return false;
  }
  return true;
}

/// Per column, its index among the kept ones, or -1 where it is dropped.
std::vector<int> KeepMap(const std::vector<bool>& keep) {
  std::vector<int> map(keep.size(), -1);
  int next = 0;
  for (size_t i = 0; i < keep.size(); ++i) {
    if (keep[i]) map[i] = next++;
  }
  return map;
}

/// The fields of `schema` that `map` keeps, in order.
TableSchema Narrow(const TableSchema& schema, const std::vector<int>& map) {
  TableSchema out;
  for (int i = 0; i < schema.num_fields(); ++i) {
    if (map[static_cast<size_t>(i)] >= 0) out.AddField(schema.field(i));
  }
  return out;
}

/// True when a bound reference in `e` moves under `map`.
bool Moves(const Expr& e, const std::vector<int>& map) {
  if (e.kind == ExprKind::kColumnRef && e.bound_index >= 0) {
    return e.bound_index >= static_cast<int>(map.size()) ||
           map[static_cast<size_t>(e.bound_index)] != e.bound_index;
  }
  return std::any_of(e.children.begin(), e.children.end(),
                     [&](const ExprPtr& c) { return Moves(*c, map); });
}

Status RenumberInPlace(Expr* e, const std::vector<int>& map) {
  if (e->kind == ExprKind::kColumnRef && e->bound_index >= 0) {
    const int to = e->bound_index < static_cast<int>(map.size())
                       ? map[static_cast<size_t>(e->bound_index)]
                       : -1;
    if (to < 0) {
      return Status::InternalError("column pruning dropped column #",
                                   e->bound_index, ", which ", e->ToString(),
                                   " reads");
    }
    e->bound_index = to;
  }
  for (auto& c : e->children) {
    DL2SQL_RETURN_NOT_OK(RenumberInPlace(c.get(), map));
  }
  return Status::OK();
}

/// `e` with its bound references renumbered through `map`: `e` itself when
/// none moves, else a renumbered clone (plan nodes may share an
/// expression, so none is edited in place).
Result<ExprPtr> Renumber(const ExprPtr& e, const std::vector<int>& map) {
  if (!Moves(*e, map)) return e;
  ExprPtr out = e->Clone();
  DL2SQL_RETURN_NOT_OK(RenumberInPlace(out.get(), map));
  return out;
}

/// When `keep` flags none of `schema`'s columns, flags one: a table needs a
/// column to carry its row count. The first fixed-width one is the cheapest
/// to decode; with none, the first column.
void KeepOneIfNone(const TableSchema& schema, std::vector<bool>* keep) {
  if (keep->empty() ||
      std::any_of(keep->begin(), keep->end(), [](bool k) { return k; })) {
    return;
  }
  const std::vector<Field>& fields = schema.fields();
  const auto fixed =
      std::find_if(fields.begin(), fields.end(), [](const Field& f) {
        return f.type == DataType::kBool || f.type == DataType::kInt64 ||
               f.type == DataType::kFloat64;
      });
  (*keep)[fixed == fields.end()
              ? 0
              : static_cast<size_t>(fixed - fields.begin())] = true;
}

/// Column pruning. `used` flags the output columns of `node` that its
/// parent reads; the subtree is rewritten to output the flagged columns and
/// those its own operators must keep. Returns, per output column, its new
/// index, or -1 where it is dropped. A node that loses no column is left as
/// it is.
Result<std::vector<int>> PruneColumns(PlanNode* node, std::vector<bool> used) {
  const int width = node->output_schema.num_fields();
  switch (node->kind) {
    case PlanKind::kScan: {
      KeepOneIfNone(node->output_schema, &used);  // SELECT count(*) FROM t
      std::vector<int> map = KeepMap(used);
      if (IsIdentity(map)) return map;
      std::vector<int> columns;
      for (int i = 0; i < width; ++i) {
        if (!used[static_cast<size_t>(i)]) continue;
        columns.push_back(node->scan_columns.empty()
                              ? i
                              : node->scan_columns[static_cast<size_t>(i)]);
      }
      node->scan_columns = std::move(columns);
      node->output_schema = Narrow(node->output_schema, map);
      return map;
    }
    case PlanKind::kFilter:
    case PlanKind::kSort:
    case PlanKind::kLimit: {
      // Row operators output their child's columns: the ones they read
      // themselves stay, whether or not the parent reads them.
      if (node->predicate != nullptr) MarkReads(*node->predicate, &used);
      for (const auto& k : node->sort_keys) MarkReads(*k, &used);
      DL2SQL_ASSIGN_OR_RETURN(
          std::vector<int> map,
          PruneColumns(node->children[0].get(), std::move(used)));
      if (IsIdentity(map)) return map;
      if (node->predicate != nullptr) {
        DL2SQL_ASSIGN_OR_RETURN(node->predicate,
                                Renumber(node->predicate, map));
      }
      for (auto& k : node->sort_keys) {
        DL2SQL_ASSIGN_OR_RETURN(k, Renumber(k, map));
      }
      node->output_schema = Narrow(node->output_schema, map);
      return map;
    }
    case PlanKind::kJoin: {
      const size_t left_width = static_cast<size_t>(
          node->children[0]->output_schema.num_fields());
      if (node->join_condition != nullptr) {
        MarkReads(*node->join_condition, &used);
      }
      std::vector<bool> left_used(used.begin(),
                                  used.begin() + static_cast<long>(left_width));
      std::vector<bool> right_used(
          used.begin() + static_cast<long>(left_width), used.end());
      for (const auto& [lk, rk] : node->equi_keys) {
        MarkReads(*lk, &left_used);
        MarkReads(*rk, &right_used);
      }
      DL2SQL_ASSIGN_OR_RETURN(
          std::vector<int> left_map,
          PruneColumns(node->children[0].get(), std::move(left_used)));
      DL2SQL_ASSIGN_OR_RETURN(
          std::vector<int> right_map,
          PruneColumns(node->children[1].get(), std::move(right_used)));
      const int new_left_width = node->children[0]->output_schema.num_fields();
      std::vector<int> map = left_map;
      for (const int r : right_map) {
        map.push_back(r < 0 ? -1 : new_left_width + r);
      }
      if (IsIdentity(map)) return map;
      for (auto& [lk, rk] : node->equi_keys) {
        DL2SQL_ASSIGN_OR_RETURN(lk, Renumber(lk, left_map));
        DL2SQL_ASSIGN_OR_RETURN(rk, Renumber(rk, right_map));
      }
      if (node->join_condition != nullptr) {
        DL2SQL_ASSIGN_OR_RETURN(node->join_condition,
                                Renumber(node->join_condition, map));
      }
      node->output_schema = Narrow(node->output_schema, map);
      return map;
    }
    case PlanKind::kAggregate: {
      // The aggregate's own output never changes; its input keeps the
      // columns of the group keys and the aggregates' arguments.
      std::vector<bool> child_used(static_cast<size_t>(
          node->children[0]->output_schema.num_fields()));
      for (const auto& k : node->group_keys) MarkReads(*k, &child_used);
      for (const auto& a : node->agg_calls) MarkReads(*a, &child_used);
      DL2SQL_ASSIGN_OR_RETURN(
          const std::vector<int> child_map,
          PruneColumns(node->children[0].get(), std::move(child_used)));
      if (!IsIdentity(child_map)) {
        for (auto& k : node->group_keys) {
          DL2SQL_ASSIGN_OR_RETURN(k, Renumber(k, child_map));
        }
        for (auto& a : node->agg_calls) {
          DL2SQL_ASSIGN_OR_RETURN(a, Renumber(a, child_map));
        }
      }
      std::vector<int> map(static_cast<size_t>(width));
      std::iota(map.begin(), map.end(), 0);
      return map;
    }
    case PlanKind::kProject: {
      // Every computed expression stays, so an nUDF runs exactly as
      // without pruning; an unread bare column reference is dropped.
      std::vector<bool> keep(static_cast<size_t>(width));
      for (size_t i = 0; i < keep.size(); ++i) {
        keep[i] = used[i] || node->exprs[i]->kind != ExprKind::kColumnRef;
      }
      KeepOneIfNone(node->output_schema, &keep);
      std::vector<bool> child_used(static_cast<size_t>(
          node->children[0]->output_schema.num_fields()));
      for (size_t i = 0; i < keep.size(); ++i) {
        if (keep[i]) MarkReads(*node->exprs[i], &child_used);
      }
      DL2SQL_ASSIGN_OR_RETURN(
          const std::vector<int> child_map,
          PruneColumns(node->children[0].get(), std::move(child_used)));
      std::vector<int> map = KeepMap(keep);
      if (IsIdentity(map) && IsIdentity(child_map)) return map;
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names;
      for (size_t i = 0; i < keep.size(); ++i) {
        if (!keep[i]) continue;
        DL2SQL_ASSIGN_OR_RETURN(ExprPtr e, Renumber(node->exprs[i], child_map));
        exprs.push_back(std::move(e));
        names.push_back(node->names[i]);
      }
      node->exprs = std::move(exprs);
      node->names = std::move(names);
      node->output_schema = Narrow(node->output_schema, map);
      return map;
    }
  }
  return Status::InternalError("unhandled plan kind in column pruning");
}

}  // namespace

Result<PlanPtr> Optimizer::Optimize(PlanPtr plan) {
  DL2SQL_ASSIGN_OR_RETURN(plan, OptimizeNode(std::move(plan)));
  if (options_.enable_join_reorder) {
    DL2SQL_ASSIGN_OR_RETURN(plan, ReorderJoins(std::move(plan)));
  }
  // Every scan outputs only the columns the plan above it reads; the root
  // reads every column of its own output, which therefore never changes.
  std::vector<bool> all(
      static_cast<size_t>(plan->output_schema.num_fields()), true);
  DL2SQL_RETURN_NOT_OK(PruneColumns(plan.get(), std::move(all)).status());
  DL2SQL_RETURN_NOT_OK(model_->Annotate(plan.get(), ctx_));
  DL2SQL_RETURN_NOT_OK(ChooseBuildSides(plan.get()));
  return plan;
}

Result<PlanPtr> Optimizer::OptimizeNode(PlanPtr plan) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  switch (plan->kind) {
    case PlanKind::kProject:
    case PlanKind::kAggregate:
    case PlanKind::kSort:
    case PlanKind::kLimit: {
      for (auto& c : plan->children) {
        DL2SQL_ASSIGN_OR_RETURN(c, OptimizeNode(c));
      }
      return plan;
    }
    case PlanKind::kFilter:
    case PlanKind::kJoin: {
      if (!options_.enable_pushdown) {
        for (auto& c : plan->children) {
          DL2SQL_ASSIGN_OR_RETURN(c, OptimizeNode(c));
        }
        return plan;
      }
      // Collect conjuncts from the filter chain at this subtree root.
      std::vector<ExprPtr> preds;
      PlanPtr cur = plan;
      while (cur->kind == PlanKind::kFilter) {
        SplitConjuncts(cur->predicate, &preds);
        cur = cur->children[0];
      }
      std::vector<ExprPtr> relational;
      std::vector<ExprPtr> neural;
      auto references_columns = [](const Expr& e) {
        std::vector<std::string> refs;
        e.CollectColumns(&refs);
        return !refs.empty();
      };
      for (auto& p : preds) {
        // Neural predicates go through hint-rule placement — except
        // join-condition-shaped equalities (nUDF(x) = other-relation column),
        // which must reach the join so rule 3 can pick the symmetric hash
        // join.
        const bool neural_comparison =
            options_.enable_nudf_hints && IsNeuralExpr(*p);
        const bool join_shaped =
            p->kind == ExprKind::kBinary && p->bin_op == BinaryOp::kEq &&
            references_columns(*p->children[0]) &&
            references_columns(*p->children[1]);
        if (neural_comparison && !join_shaped) {
          neural.push_back(p);
        } else {
          relational.push_back(p);
        }
      }
      DL2SQL_ASSIGN_OR_RETURN(PlanPtr pushed,
                              PushDown(cur, std::move(relational)));
      if (options_.enable_nudf_hints) {
        return PlaceNeuralPredicates(std::move(pushed), std::move(neural));
      }
      return pushed;
    }
    case PlanKind::kScan:
      return plan;
  }
  return Status::InternalError("unhandled plan kind in optimizer");
}

Result<PlanPtr> Optimizer::PushDown(PlanPtr node, std::vector<ExprPtr> preds) {
  switch (node->kind) {
    case PlanKind::kFilter: {
      SplitConjuncts(node->predicate, &preds);
      return PushDown(node->children[0], std::move(preds));
    }
    case PlanKind::kJoin: {
      const int left_width = node->children[0]->output_schema.num_fields();
      std::vector<ExprPtr> left_preds;
      std::vector<ExprPtr> right_preds;
      std::vector<ExprPtr> residual;

      // The join's own ON condition participates in the split too.
      if (node->join_condition != nullptr) {
        SplitConjuncts(node->join_condition, &preds);
        node->join_condition = nullptr;
      }

      for (auto& p : preds) {
        const Side side = ClassifySide(*p, left_width);
        if (side == Side::kLeft) {
          left_preds.push_back(std::move(p));
          continue;
        }
        if (side == Side::kRight) {
          ShiftBoundIndexes(p.get(), -left_width);
          right_preds.push_back(std::move(p));
          continue;
        }
        if (side == Side::kNone) {
          // Row-independent predicate: cheapest on the smaller side; keep as
          // residual to stay simple.
          residual.push_back(std::move(p));
          continue;
        }
        // Spans both sides: extract hashable equi keys.
        if (p->kind == ExprKind::kBinary && p->bin_op == BinaryOp::kEq) {
          const Expr& a = *p->children[0];
          const Expr& b = *p->children[1];
          const Side sa = ClassifySide(a, left_width);
          const Side sb = ClassifySide(b, left_width);
          const bool neural_key =
              options_.enable_nudf_hints &&
              (IsNeuralExpr(a) || IsNeuralExpr(b));
          if (sa == Side::kLeft && sb == Side::kRight) {
            ExprPtr rk = p->children[1];
            ShiftBoundIndexes(rk.get(), -left_width);
            node->equi_keys.emplace_back(p->children[0], std::move(rk));
            if (neural_key) node->use_symmetric_hash = true;
            node->join_is_inner = true;
            continue;
          }
          if (sa == Side::kRight && sb == Side::kLeft) {
            ExprPtr rk = p->children[0];
            ShiftBoundIndexes(rk.get(), -left_width);
            node->equi_keys.emplace_back(p->children[1], std::move(rk));
            if (neural_key) node->use_symmetric_hash = true;
            node->join_is_inner = true;
            continue;
          }
        }
        residual.push_back(std::move(p));
      }

      if (!residual.empty()) {
        node->join_is_inner = true;
        node->join_condition = CombineConjuncts(residual);
      }
      DL2SQL_ASSIGN_OR_RETURN(
          node->children[0], PushDown(node->children[0], std::move(left_preds)));
      DL2SQL_ASSIGN_OR_RETURN(
          node->children[1],
          PushDown(node->children[1], std::move(right_preds)));
      return node;
    }
    case PlanKind::kScan: {
      if (preds.empty()) return node;
      return MakeFilter(std::move(node), CombineConjuncts(preds));
    }
    default: {
      // Project/Aggregate/Sort/Limit: optimize below independently; keep the
      // predicates above (pushing through projections would require
      // expression rewriting we do not attempt).
      DL2SQL_ASSIGN_OR_RETURN(PlanPtr sub, OptimizeNode(node));
      if (preds.empty()) return sub;
      return MakeFilter(std::move(sub), CombineConjuncts(preds));
    }
  }
}

namespace {

/// Inserts a (neural) predicate as deep as its column references allow:
/// descends join children whose schema binds every referenced column, and
/// wraps the reached subtree in a Filter.
Result<PlanPtr> InsertAtLowest(PlanPtr node, ExprPtr pred) {
  if (node->kind == PlanKind::kJoin) {
    for (size_t side = 0; side < 2; ++side) {
      ExprPtr attempt = pred->Clone();
      UnbindExpr(attempt.get());
      if (BindExpr(attempt.get(), node->children[side]->output_schema).ok()) {
        DL2SQL_ASSIGN_OR_RETURN(
            node->children[side],
            InsertAtLowest(node->children[side], std::move(attempt)));
        return node;
      }
    }
  }
  // Attach here.
  ExprPtr bound = pred->Clone();
  UnbindExpr(bound.get());
  DL2SQL_RETURN_NOT_OK(BindExpr(bound.get(), node->output_schema));
  return MakeFilter(std::move(node), std::move(bound));
}

}  // namespace

Result<PlanPtr> Optimizer::PlaceNeuralPredicates(
    PlanPtr plan, std::vector<ExprPtr> neural_preds) {
  if (neural_preds.empty()) return plan;

  // Order rule: evaluate the most selective nUDF first (paper's detect-
  // before-classify example). "First" = deepest filter in the cascade.
  std::stable_sort(neural_preds.begin(), neural_preds.end(),
                   [&](const ExprPtr& a, const ExprPtr& b) {
                     return model_->EstimateSelectivity(*a, *plan, ctx_) <
                            model_->EstimateSelectivity(*b, *plan, ctx_);
                   });

  // Candidate A: evaluate during the table scan (deepest legal position).
  PlanPtr scan_time = ClonePlan(plan);
  // Most selective pred should end up nearest the scan; inserting in reverse
  // order stacks filters with the most selective at the bottom.
  for (auto it = neural_preds.rbegin(); it != neural_preds.rend(); ++it) {
    DL2SQL_ASSIGN_OR_RETURN(scan_time,
                            InsertAtLowest(std::move(scan_time), *it));
  }

  // Candidate B: delay as much as possible — cascade of filters above the
  // whole relational subtree, most selective first (bottom).
  PlanPtr delayed = ClonePlan(plan);
  for (const auto& p : neural_preds) {
    ExprPtr bound = p->Clone();
    UnbindExpr(bound.get());
    DL2SQL_RETURN_NOT_OK(BindExpr(bound.get(), delayed->output_schema));
    delayed = MakeFilter(std::move(delayed), std::move(bound));
  }

  DL2SQL_RETURN_NOT_OK(model_->Annotate(scan_time.get(), ctx_));
  DL2SQL_RETURN_NOT_OK(model_->Annotate(delayed.get(), ctx_));
  DL2SQL_LOG(Debug) << "nUDF placement: scan-time cost=" << scan_time->est_cost
                    << " delayed cost=" << delayed->est_cost;
  return scan_time->est_cost <= delayed->est_cost ? scan_time : delayed;
}

}  // namespace dl2sql::db
