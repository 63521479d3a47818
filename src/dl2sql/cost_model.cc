#include "dl2sql/cost_model.h"

#include "common/string_util.h"
#include "db/cost_model.h"

namespace dl2sql::core {

std::vector<OpCostEstimate> EstimateCustom(const ConvertedModel& model) {
  std::vector<OpCostEstimate> out;
  // Track the flat cardinality flowing between ops (dense activations).
  double flat_rows = static_cast<double>(model.input_shape.NumElements());
  for (const auto& op : model.ops) {
    OpCostEstimate e;
    e.label = op.layer_name;
    e.kind = op.kind;
    switch (op.kind) {
      case nn::LayerKind::kConv2d:
      case nn::LayerKind::kDeconv2d: {
        const LayerGeometry& g = op.geom;
        const double k_in =
            static_cast<double>(g.kernel * g.kernel * g.in_c);
        const double k_out =
            static_cast<double>(g.kernel * g.kernel * g.out_c);
        const double t_in = static_cast<double>(g.out_h * g.out_w) * k_in;
        const double s_j = 1.0 / k_in;
        const double t_out = t_in * s_j * k_out;  // Eq. 5
        // Eq. 7: scan + probe-weighted join + mapping pass. The paper's
        // T_out counts join/group work; the materialized activation is the
        // dense out_c*out_h*out_w.
        e.cost_units = t_in + t_out * s_j * k_in + t_out;
        e.output_rows =
            static_cast<double>(g.out_c * g.out_h * g.out_w);
        // The reshape (Q2) pass under the non-prejoined strategy costs one
        // extra scan of the feature-map table.
        if (model.options.prejoin == PreJoinStrategy::kNone) {
          e.cost_units += t_in;
        }
        flat_rows = e.output_rows;
        break;
      }
      case nn::LayerKind::kMaxPool:
      case nn::LayerKind::kAvgPool: {
        const LayerGeometry& g = op.geom;
        const double windows =
            static_cast<double>(g.out_c * g.out_h * g.out_w);
        const double joined = windows * static_cast<double>(g.kernel * g.kernel);
        e.cost_units = flat_rows + joined + windows;
        e.output_rows = windows;
        flat_rows = windows;
        break;
      }
      case nn::LayerKind::kBatchNorm:
      case nn::LayerKind::kRelu:
      case nn::LayerKind::kSoftmax:
      case nn::LayerKind::kInstanceNorm: {
        e.cost_units = flat_rows;  // single scan
        e.output_rows = flat_rows;
        break;
      }
      case nn::LayerKind::kGlobalAvgPool: {
        e.cost_units = flat_rows;
        const LayerGeometry& g = op.geom;
        e.output_rows = g.out_c > 0 ? static_cast<double>(g.out_c)
                                    : std::max(1.0, flat_rows / 64.0);
        // Without geometry, fall back to the tracked activation; GAP output
        // equals the channel count which callers get from the next op.
        flat_rows = e.output_rows;
        break;
      }
      case nn::LayerKind::kFlatten: {
        e.cost_units = 0;
        e.output_rows = flat_rows;
        break;
      }
      case nn::LayerKind::kLinear:
      case nn::LayerKind::kBasicAttention: {
        // FC = 1x1-conv special case: join of the flat input with the weight
        // table (|W| = in*out pairs) plus the grouped output.
        // Without stored geometry we approximate via the runtime SQL: the
        // weight table is the static deploy; cost ~ |W| + out.
        e.cost_units = flat_rows * 8;  // modest multiplier; refined below
        e.output_rows = flat_rows;
        break;
      }
      case nn::LayerKind::kResidualBlock:
      case nn::LayerKind::kIdentityBlock:
      case nn::LayerKind::kDenseBlock: {
        // The add/concat op itself: linear in the feature size.
        e.cost_units = 2 * flat_rows;
        e.output_rows = flat_rows;
        break;
      }
    }
    out.push_back(std::move(e));
  }
  return out;
}

Result<std::vector<OpCostEstimate>> EstimateDefault(const ConvertedModel& model,
                                                    db::Database* db) {
  std::vector<OpCostEstimate> out;
  db::CostContext ctx;
  ctx.catalog = &db->catalog();
  ctx.udfs = &db->udfs();
  ctx.assumed_rows[ToLower(model.input_table)] =
      static_cast<double>(model.input_shape.NumElements());
  db::DefaultCostModel blind;
  db::Planner planner(&db->catalog(), &db->udfs());

  // Register empty shell tables so column binding succeeds for the not-yet-
  // created temp tables; cardinalities come from ctx.assumed_rows, exactly
  // mirroring an optimizer planning a statement chain before execution.
  std::vector<std::string> shells;
  for (const auto& name : model.RuntimeTables()) {
    if (db->catalog().HasTable(name)) continue;
    db::TableSchema schema;
    if (model.options.batched) {
      schema.AddField({"BatchID", db::DataType::kInt64});
    }
    if (name.ends_with("_fm")) {
      schema.AddField({"MatrixID", db::DataType::kInt64});
      schema.AddField({"OrderID", db::DataType::kInt64});
      schema.AddField({"Value", db::DataType::kFloat64});
    } else {
      schema.AddField({"TupleID", db::DataType::kInt64});
      schema.AddField({"Value", db::DataType::kFloat64});
    }
    DL2SQL_RETURN_NOT_OK(db->catalog().CreateTable(
        name, std::make_shared<db::Table>(db::Table{schema}), true));
    shells.push_back(name);
  }
  auto drop_shells = [&]() {
    for (const auto& s : shells) {
      (void)db->catalog().DropTable(s, true);
    }
  };

  auto body = [&]() -> Status {
  for (const auto& op : model.ops) {
    OpCostEstimate e;
    e.label = op.layer_name;
    e.kind = op.kind;
    for (const auto& stmt_sql : op.runtime_sql) {
      DL2SQL_ASSIGN_OR_RETURN(db::Statement stmt,
                              db::sql::ParseStatement(stmt_sql));
      const db::SelectStmt* select = nullptr;
      std::string created;
      if (std::holds_alternative<db::CreateTableStmt>(stmt)) {
        const auto& ct = std::get<db::CreateTableStmt>(stmt);
        select = ct.as_select.get();
        created = ct.name;
      } else if (std::holds_alternative<db::InsertStmt>(stmt)) {
        const auto& ins = std::get<db::InsertStmt>(stmt);
        select = ins.select.get();
        created = ins.table;
      } else if (std::holds_alternative<db::UpdateStmt>(stmt)) {
        // UPDATE cost: one scan of the (assumed) table.
        const auto& up = std::get<db::UpdateStmt>(stmt);
        auto it = ctx.assumed_rows.find(ToLower(up.table));
        if (it != ctx.assumed_rows.end()) e.cost_units += it->second;
        continue;
      }
      if (select == nullptr) continue;

      // Plan against the catalog; tables that do not exist yet must be
      // registered as empty shells so the planner can bind columns. We
      // temporarily create them from the statement chain: all runtime tables
      // share the flat (TupleID, Value) schema except conv feature maps.
      DL2SQL_ASSIGN_OR_RETURN(db::PlanPtr plan, planner.PlanSelect(*select));
      DL2SQL_RETURN_NOT_OK(blind.Annotate(plan.get(), ctx));
      e.cost_units += plan->est_cost;
      e.output_rows = plan->est_rows;
      if (!created.empty()) {
        // Chain: downstream statements of this op (and later ops) see the
        // blind model's own estimate as this table's cardinality.
        double prev = 0;
        auto it = ctx.assumed_rows.find(ToLower(created));
        if (it != ctx.assumed_rows.end()) prev = it->second;
        ctx.assumed_rows[ToLower(created)] = prev + plan->est_rows;
      }
    }
    out.push_back(std::move(e));
  }
  return Status::OK();
  };
  const Status st = body();
  drop_shells();
  DL2SQL_RETURN_NOT_OK(st);
  return out;
}

double TotalUnits(const std::vector<OpCostEstimate>& estimates) {
  double t = 0;
  for (const auto& e : estimates) t += e.cost_units;
  return t;
}

Result<double> CalibrateSecondsPerUnit(db::Database* db, int64_t rows) {
  std::vector<int64_t> ids(static_cast<size_t>(rows));
  std::vector<double> vals(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    ids[static_cast<size_t>(i)] = i;
    vals[static_cast<size_t>(i)] = static_cast<double>(i) * 0.5;
  }
  DL2SQL_ASSIGN_OR_RETURN(
      db::Table t,
      db::Table::FromColumns(
          db::TableSchema({{"TupleID", db::DataType::kInt64},
                           {"Value", db::DataType::kFloat64}}),
          {db::Column::Ints(std::move(ids)), db::Column::Floats(std::move(vals))}));
  DL2SQL_RETURN_NOT_OK(db->RegisterTable("__calib", std::move(t), true));
  // Warm once, then time a scan+filter pass whose modeled cost is ~2*rows
  // (scan units + filter evaluation units).
  DL2SQL_RETURN_NOT_OK(
      db->Execute("SELECT count(*) FROM __calib WHERE Value >= 0").status());
  Stopwatch watch;
  DL2SQL_RETURN_NOT_OK(
      db->Execute("SELECT count(*) FROM __calib WHERE Value >= 0").status());
  const double secs = watch.ElapsedSeconds();
  DL2SQL_RETURN_NOT_OK(db->Execute("DROP TABLE __calib").status());
  return secs / (2.0 * static_cast<double>(rows));
}

}  // namespace dl2sql::core
