#include "engines/independent_engine.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "db/eval.h"
#include "tensor/tensor_blob.h"

namespace dl2sql::engines {

namespace {

std::string BaseName(const std::string& name) {
  const size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

std::string QualifierOf(const std::string& name) {
  const size_t dot = name.rfind('.');
  return dot == std::string::npos ? std::string() : name.substr(0, dot);
}

/// Strips table qualifiers from every column reference.
void UnqualifyColumns(db::Expr* e) {
  if (e->kind == db::ExprKind::kColumnRef) {
    e->column_name = BaseName(e->column_name);
    e->bound_index = -1;
  }
  for (auto& c : e->children) UnqualifyColumns(c.get());
}

/// Replaces neural-call subtrees (textual identity) with column references.
void ReplaceNeuralCalls(db::ExprPtr* e,
                        const std::map<std::string, std::string>& call_to_col) {
  auto it = call_to_col.find((*e)->ToString());
  if (it != call_to_col.end()) {
    *e = db::Expr::Col(it->second);
    return;
  }
  for (auto& c : (*e)->children) ReplaceNeuralCalls(&c, call_to_col);
}

/// Collects distinct neural calls in an expression tree.
void CollectNeuralCalls(const db::ExprPtr& e, const db::UdfRegistry& udfs,
                        std::vector<db::ExprPtr>* calls,
                        std::set<std::string>* seen) {
  if (e->kind == db::ExprKind::kFuncCall && udfs.IsNeural(e->func_name)) {
    if (seen->insert(e->ToString()).second) calls->push_back(e);
    return;
  }
  for (const auto& c : e->children) CollectNeuralCalls(c, udfs, calls, seen);
}

bool ContainsNeural(const db::ExprPtr& e, const db::UdfRegistry& udfs) {
  std::vector<db::ExprPtr> calls;
  std::set<std::string> seen;
  CollectNeuralCalls(e, udfs, &calls, &seen);
  return !calls.empty();
}

}  // namespace

IndependentEngine::IndependentEngine(std::shared_ptr<Device> device)
    : CollaborativeEngine(std::move(device)) {}

Status IndependentEngine::DeployModel(const nn::Model& model,
                                      const ModelDeployment& deployment) {
  DL2SQL_ASSIGN_OR_RETURN(std::string script,
                          nn::SerializeModel(model, nn::ModelFormat::kScript));
  served_[ToLower(deployment.udf_name)] =
      ServedModel{std::move(script), deployment.output};
  deployments_[deployment.udf_name] = deployment;
  // Register metadata-only: the application layer intercepts neural calls
  // before the database would ever evaluate them, but the registry entry (a)
  // lets the coordinator identify neural calls and (b) carries the
  // selectivity histogram.
  db::NUdfInfo info;
  info.model_name = model.name();
  info.selectivity = deployment.selectivity;
  info.num_parameters = model.NumParameters();
  db_.udfs().RegisterNeural(
      deployment.udf_name, ReturnType(deployment.output),
      [](const std::vector<db::Value>&) -> Result<db::Value> {
        return Status::InternalError(
            "independent processing must not evaluate nUDFs inside the "
            "database");
      },
      std::move(info));
  return Status::OK();
}

Result<std::vector<db::Value>> IndependentEngine::ServeBatch(
    const std::string& udf_name, const std::vector<Tensor>& inputs,
    QueryCost* cost) {
  auto it = served_.find(ToLower(udf_name));
  if (it == served_.end()) {
    return Status::NotFound("model for nUDF '", udf_name, "' is not served");
  }
  const ServedModel& served = it->second;
  const DeviceProfile& prof = device_->profile();

  // Per-query model load in the DL system (CPU work, device-speed scaled).
  Stopwatch load_watch;
  DL2SQL_ASSIGN_OR_RETURN(nn::Model model, nn::DeserializeModel(served.script));
  cost->loading_seconds +=
      load_watch.ElapsedSeconds() * CpuFactor();

  // Accelerator traffic: one batched transfer each way + weights once per
  // query (modeled, absolute).
  if (prof.NeedsTransfer()) {
    uint64_t bytes = static_cast<uint64_t>(model.NumParameters()) * sizeof(float);
    for (const auto& t : inputs) {
      bytes += static_cast<uint64_t>(t.NumElements()) * sizeof(float);
    }
    cost->loading_seconds += device_->TransferSeconds(bytes);
    cost->loading_seconds +=
        device_->TransferSeconds(inputs.size() * sizeof(int64_t));
  }

  std::vector<db::Value> out;
  out.reserve(inputs.size());
  Stopwatch fwd_watch;
  for (const auto& input : inputs) {
    DL2SQL_ASSIGN_OR_RETURN(int64_t cls, model.Predict(input, device_.get()));
    out.push_back(ToValue(served.output, model, cls));
  }
  cost->inference_seconds += fwd_watch.ElapsedSeconds() * prof.compute_scale;
  return out;
}

Result<db::Table> IndependentEngine::ExecuteCollaborative(const std::string& sql,
                                                          QueryCost* cost) {
  // The application layer coordinates (Section III-A): Q_learning runs in
  // the DL system over each nUDF's *source relation* (filtered only by that
  // relation's own relational predicates — the app cannot anticipate join
  // results), predictions are forwarded back into the database as enriched
  // temp tables, and Q_db runs there with nUDF calls replaced by prediction
  // columns. The full keyframe set crossing the system boundary is this
  // strategy's structural cost, and it is what makes it insensitive to the
  // relational selectivity (Table V's observation).
  QueryCost local;
  DL2SQL_TRACE_SPAN("engine", "independent.query");
  DL2SQL_ASSIGN_OR_RETURN(db::Statement parsed, db::sql::ParseStatement(sql));
  if (!std::holds_alternative<std::shared_ptr<db::SelectStmt>>(parsed)) {
    return Status::InvalidArgument(
        "collaborative queries must be SELECT statements");
  }
  auto stmt = std::get<std::shared_ptr<db::SelectStmt>>(parsed);

  // ---- identify Q_learning: the distinct nUDF calls ----
  std::vector<db::ExprPtr> neural_calls;
  std::set<std::string> seen_calls;
  for (const auto& item : stmt->items) {
    CollectNeuralCalls(item.expr, db_.udfs(), &neural_calls, &seen_calls);
  }
  if (stmt->where != nullptr) {
    CollectNeuralCalls(stmt->where, db_.udfs(), &neural_calls, &seen_calls);
  }
  if (stmt->having != nullptr) {
    CollectNeuralCalls(stmt->having, db_.udfs(), &neural_calls, &seen_calls);
  }

  // ---- resolve each call's source relation (alias -> base table) ----
  struct SourceRelation {
    std::string alias;
    std::string base_table;
    std::vector<const db::Expr*> calls;  // calls fed from this relation
  };
  std::map<std::string, SourceRelation> sources;
  auto alias_to_table = [&](const std::string& alias) -> Result<std::string> {
    auto check = [&](const db::TableRef& ref) -> std::string {
      if (EqualsIgnoreCase(ref.EffectiveName(), alias) && !ref.IsDerived()) {
        return ref.table_name;
      }
      return "";
    };
    if (stmt->from) {
      std::string t = check(*stmt->from);
      if (!t.empty()) return t;
    }
    for (const auto& j : stmt->joins) {
      std::string t = check(j.table);
      if (!t.empty()) return t;
    }
    return Status::InvalidArgument("cannot resolve relation alias '", alias,
                                   "' for an nUDF argument");
  };

  for (const auto& call : neural_calls) {
    std::vector<std::string> refs;
    call->CollectColumns(&refs);
    if (refs.empty()) {
      return Status::InvalidArgument("nUDF call without column arguments: ",
                                     call->ToString());
    }
    std::set<std::string> quals;
    for (const auto& r : refs) quals.insert(ToLower(QualifierOf(r)));
    if (quals.size() != 1 || quals.count("") != 0) {
      return Status::NotImplemented(
          "independent processing requires qualified single-relation nUDF "
          "arguments: ",
          call->ToString());
    }
    const std::string alias = *quals.begin();
    auto& src = sources[alias];
    if (src.alias.empty()) {
      src.alias = alias;
      DL2SQL_ASSIGN_OR_RETURN(src.base_table, alias_to_table(alias));
    }
    src.calls.push_back(call.get());
  }

  // ---- per-relation local predicates (the app's hand-crafted pushdown) ----
  std::vector<db::ExprPtr> where_conjuncts;
  if (stmt->where != nullptr) {
    db::SplitConjuncts(stmt->where, &where_conjuncts);
  }
  auto local_conjuncts_for = [&](const std::string& alias) {
    std::vector<db::ExprPtr> out;
    for (const auto& c : where_conjuncts) {
      if (ContainsNeural(c, db_.udfs())) continue;
      std::vector<std::string> refs;
      c->CollectColumns(&refs);
      if (refs.empty()) continue;
      bool all_local = true;
      for (const auto& r : refs) {
        if (!EqualsIgnoreCase(QualifierOf(r), alias)) {
          all_local = false;
          break;
        }
      }
      if (all_local) out.push_back(c);
    }
    return out;
  };

  // ---- Q_learning per source relation ----
  std::map<std::string, std::string> call_to_col;
  std::vector<std::string> temp_tables;
  int pred_idx = 0;
  for (auto& [alias_key, src] : sources) {
    // Q_learning phase: local scan + DL-system serving + boundary shipping
    // for one source relation.
    DL2SQL_TRACE_SPAN("engine", "independent.q_learning",
                      "\"relation\":\"" + src.base_table + "\"");
    // Local relational scan of the source relation, inside the database.
    auto local_stmt = std::make_shared<db::SelectStmt>();
    local_stmt->items.push_back({db::Expr::Star(), ""});
    db::TableRef ref;
    ref.table_name = src.base_table;
    ref.alias = src.alias;
    local_stmt->from = ref;
    auto local_preds = local_conjuncts_for(src.alias);
    if (!local_preds.empty()) {
      local_stmt->where = db::CombineConjuncts(local_preds);
    }
    CostAccumulator acc;
    auto rows_r = db_.ExecuteSelect(*local_stmt, &acc);
    DL2SQL_RETURN_NOT_OK(rows_r.status());
    db::Table rows = std::move(rows_r).ValueOrDie();
    {
      QueryCost relational = SplitBuckets(acc);
      local.relational_seconds +=
          relational.relational_seconds * RelationalFactor();
    }

    db::Table enriched = rows;
    db::EvalContext eval_ctx;
    eval_ctx.udfs = &db_.udfs();
    for (const db::Expr* call : src.calls) {
      // Argument blobs cross the boundary to the DL system.
      db::ExprPtr arg = call->children[0]->Clone();
      UnqualifyColumns(arg.get());
      DL2SQL_ASSIGN_OR_RETURN(db::ColumnHandle blob_col,
                              db::EvalExpr(*arg, rows, &eval_ctx));
      local.loading_seconds += boundary_.TransferSeconds(blob_col->ByteSize());

      std::vector<Tensor> inputs;
      inputs.reserve(static_cast<size_t>(blob_col->size()));
      Stopwatch decode_watch;
      for (int64_t i = 0; i < blob_col->size(); ++i) {
        DL2SQL_ASSIGN_OR_RETURN(
            Tensor t,
            DecodeTensorBlob(blob_col->strings()[static_cast<size_t>(i)]));
        inputs.push_back(std::move(t));
      }
      local.loading_seconds +=
          decode_watch.ElapsedSeconds() * CpuFactor();

      std::vector<db::Value> preds;
      {
        DL2SQL_TRACE_SPAN("engine", "independent.serve",
                          "\"udf\":\"" + call->func_name + "\"");
        DL2SQL_ASSIGN_OR_RETURN(preds,
                                ServeBatch(call->func_name, inputs, &local));
      }

      // Predictions travel back across the boundary into the database.
      uint64_t pred_bytes = 0;
      for (const auto& v : preds) {
        pred_bytes += v.type() == db::DataType::kString
                          ? v.string_value().size() + 4
                          : 8;
      }
      local.loading_seconds += boundary_.TransferSeconds(pred_bytes);

      const std::string col_name = "__pred" + std::to_string(pred_idx++);
      db::Column pc(preds.empty() ? db::DataType::kBool : preds[0].type());
      for (const auto& v : preds) {
        DL2SQL_RETURN_NOT_OK(pc.Append(v));
      }
      db::TableSchema schema = enriched.schema();
      schema.AddField({col_name, pc.type()});
      std::vector<db::Column> cols;
      for (int i = 0; i < enriched.num_columns(); ++i) {
        cols.push_back(enriched.column(i));
      }
      cols.push_back(std::move(pc));
      DL2SQL_ASSIGN_OR_RETURN(enriched,
                              db::Table::FromColumns(schema, std::move(cols)));
      call_to_col[call->ToString()] = src.alias + "." + col_name;
    }

    const std::string temp_name = "__indep_" + ToLower(src.alias);
    Stopwatch forward_watch;
    DL2SQL_RETURN_NOT_OK(db_.RegisterTable(temp_name, enriched, true));
    local.loading_seconds +=
        forward_watch.ElapsedSeconds() * RelationalFactor();
    temp_tables.push_back(temp_name);
  }

  // ---- Q_db: the original query over the enriched relations ----
  auto rewrite_expr = [&](const db::ExprPtr& e) {
    db::ExprPtr out = e->Clone();
    ReplaceNeuralCalls(&out, call_to_col);
    return out;
  };
  auto phase3 = std::make_shared<db::SelectStmt>(*stmt);
  auto redirect_ref = [&](db::TableRef* ref) {
    if (ref->IsDerived()) return;
    const std::string alias = ToLower(ref->EffectiveName());
    if (sources.count(alias) != 0) {
      ref->alias = ref->EffectiveName();
      ref->table_name = "__indep_" + alias;
    }
  };
  if (phase3->from) redirect_ref(&*phase3->from);
  for (auto& j : phase3->joins) redirect_ref(&j.table);
  for (auto& item : phase3->items) item.expr = rewrite_expr(item.expr);
  if (phase3->where != nullptr) phase3->where = rewrite_expr(phase3->where);
  if (phase3->having != nullptr) phase3->having = rewrite_expr(phase3->having);
  for (auto& g : phase3->group_by) g = rewrite_expr(g);
  for (auto& o : phase3->order_by) o.expr = rewrite_expr(o.expr);

  CostAccumulator acc3;
  Result<db::Table> result = [&] {
    // Q_db phase: the rewritten query over the enriched temp tables.
    DL2SQL_TRACE_SPAN("engine", "independent.q_db");
    return db_.ExecuteSelect(*phase3, &acc3);
  }();
  for (const auto& t : temp_tables) {
    (void)db_.catalog().DropTable(t, true);
  }
  DL2SQL_RETURN_NOT_OK(result.status());
  {
    QueryCost relational = SplitBuckets(acc3);
    local.relational_seconds +=
        relational.relational_seconds * RelationalFactor();
    local.loading_seconds += relational.loading_seconds;
  }

  if (cost != nullptr) *cost = local;
  return result;
}

Result<uint64_t> IndependentEngine::ScriptBytes(const std::string& udf_name) const {
  auto it = served_.find(ToLower(udf_name));
  if (it == served_.end()) {
    return Status::NotFound("no served model for ", udf_name);
  }
  return static_cast<uint64_t>(it->second.script.size());
}

}  // namespace dl2sql::engines
