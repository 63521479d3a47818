#include "dl2sql/pipeline.h"

#include <algorithm>

namespace dl2sql::core {

using db::Column;
using db::DataType;
using db::Table;
using db::TableSchema;

void PipelineRunStats::Merge(const PipelineRunStats& other) {
  load_seconds += other.load_seconds;
  infer_seconds += other.infer_seconds;
  clause_costs.Merge(other.clause_costs);
  for (const OpTime& op : other.per_op) {
    auto it = std::find_if(per_op.begin(), per_op.end(), [&](const OpTime& o) {
      return o.label == op.label && o.kind == op.kind;
    });
    if (it != per_op.end()) {
      it->seconds += op.seconds;
    } else {
      per_op.push_back(op);
    }
  }
}

int64_t Dl2SqlRunner::sub_batch_size() const {
  if (!model_.options.batched) return 1;
  return std::max<int64_t>(1,
                           kSubBatchRowBudget / model_.WidestTableRows());
}

Status Dl2SqlRunner::LoadInputs(const std::vector<Tensor>& inputs) {
  const bool batched = model_.options.batched;
  int64_t total = 0;
  for (const auto& t : inputs) total += t.NumElements();
  std::vector<int64_t> batch_ids, ids;
  std::vector<double> values;
  if (batched) batch_ids.reserve(static_cast<size_t>(total));
  ids.reserve(static_cast<size_t>(total));
  values.reserve(static_cast<size_t>(total));
  for (size_t b = 0; b < inputs.size(); ++b) {
    const Tensor& t = inputs[b];
    for (int64_t i = 0; i < t.NumElements(); ++i) {
      if (batched) batch_ids.push_back(static_cast<int64_t>(b));
      ids.push_back(i);
      values.push_back(static_cast<double>(t.at(i)));
    }
  }
  std::vector<db::Field> fields;
  std::vector<Column> columns;
  if (batched) {
    fields.push_back({"BatchID", DataType::kInt64});
    columns.push_back(Column::Ints(std::move(batch_ids)));
  }
  fields.push_back({"TupleID", DataType::kInt64});
  fields.push_back({"Value", DataType::kFloat64});
  columns.push_back(Column::Ints(std::move(ids)));
  columns.push_back(Column::Floats(std::move(values)));
  DL2SQL_ASSIGN_OR_RETURN(
      Table t, Table::FromColumns(TableSchema(std::move(fields)),
                                  std::move(columns)));
  return db_->RegisterTable(model_.input_table, std::move(t),
                            /*temporary=*/true);
}

Status Dl2SqlRunner::Cleanup() {
  for (const auto& t : model_.RuntimeTables()) {
    DL2SQL_RETURN_NOT_OK(db_->Execute("DROP TABLE IF EXISTS " + t).status());
  }
  return Status::OK();
}

Status Dl2SqlRunner::RunStatements(PipelineRunStats* stats) {
  Stopwatch infer_watch;
  for (const auto& op : model_.ops) {
    Stopwatch op_watch;
    for (const auto& stmt : op.runtime_sql) {
      static const std::string kPrefix = "CREATE TEMP TABLE ";
      if (stmt.compare(0, kPrefix.size(), kPrefix) == 0) {
        const size_t start = kPrefix.size();
        const size_t end = stmt.find(' ', start);
        const std::string table = stmt.substr(start, end - start);
        DL2SQL_RETURN_NOT_OK(
            db_->Execute("DROP TABLE IF EXISTS " + table).status());
      }
      DL2SQL_RETURN_NOT_OK(db_->Execute(stmt).status().WithContext(
          "running generated SQL for " + op.layer_name + ": " +
          stmt.substr(0, 120)));
    }
    stats->per_op.push_back({op.layer_name, op.kind, op_watch.ElapsedSeconds()});
  }
  stats->infer_seconds = infer_watch.ElapsedSeconds();
  return Status::OK();
}

Result<Tensor> Dl2SqlRunner::Infer(const Tensor& input,
                                   PipelineRunStats* stats) {
  DL2SQL_ASSIGN_OR_RETURN(std::vector<Tensor> out,
                          InferSubBatch({input}, stats));
  return std::move(out[0]);
}

Result<std::vector<Tensor>> Dl2SqlRunner::InferBatch(
    const std::vector<Tensor>& inputs, PipelineRunStats* stats) {
  const int64_t n = static_cast<int64_t>(inputs.size());
  const int64_t per_run = sub_batch_size();
  // Near-equal runs, so no run is a small remainder.
  const int64_t runs = (n + per_run - 1) / per_run;
  std::vector<Tensor> out;
  out.reserve(inputs.size());
  PipelineRunStats total;
  for (int64_t r = 0, begin = 0; r < runs; ++r) {
    const int64_t end = begin + n / runs + (r < n % runs ? 1 : 0);
    PipelineRunStats one;
    DL2SQL_ASSIGN_OR_RETURN(
        std::vector<Tensor> part,
        InferSubBatch({inputs.begin() + begin, inputs.begin() + end}, &one));
    for (auto& t : part) out.push_back(std::move(t));
    total.Merge(one);
    begin = end;
  }
  if (stats != nullptr) *stats = std::move(total);
  return out;
}

Result<std::vector<Tensor>> Dl2SqlRunner::InferSubBatch(
    const std::vector<Tensor>& inputs, PipelineRunStats* stats) {
  if (inputs.empty()) return std::vector<Tensor>{};
  const bool batched = model_.options.batched;
  if (!batched && inputs.size() != 1) {
    return Status::InvalidArgument("DL2SQL model ", model_.model_name,
                                   " was converted per image; got ",
                                   inputs.size(), " inputs in one run");
  }
  for (const auto& input : inputs) {
    if (input.shape() != model_.input_shape) {
      return Status::InvalidArgument("DL2SQL model ", model_.model_name,
                                     " expects input ",
                                     model_.input_shape.ToString(), ", got ",
                                     input.shape().ToString());
    }
  }
  PipelineRunStats local;
  db_->set_cost_accumulator(&local.clause_costs);
  auto body = [&]() -> Result<std::vector<Tensor>> {
    {
      Stopwatch watch;
      DL2SQL_RETURN_NOT_OK(LoadInputs(inputs));
      local.load_seconds = watch.ElapsedSeconds();
    }
    DL2SQL_RETURN_NOT_OK(RunStatements(&local));
    const std::string keys = batched ? "BatchID, TupleID" : "TupleID";
    DL2SQL_ASSIGN_OR_RETURN(
        Table result, db_->Execute("SELECT " + keys + ", Value FROM " +
                                   model_.output_table + " ORDER BY " + keys));
    const int64_t batch = static_cast<int64_t>(inputs.size());
    const int64_t per_image = result.num_rows() / batch;
    if (per_image * batch != result.num_rows()) {
      return Status::InternalError("ragged batched output from ",
                                   model_.output_table);
    }
    const int id_col = batched ? 1 : 0;
    std::vector<Tensor> out;
    out.reserve(inputs.size());
    for (int64_t b = 0; b < batch; ++b) out.emplace_back(Shape({per_image}));
    for (int64_t i = 0; i < result.num_rows(); ++i) {
      const size_t row = static_cast<size_t>(i);
      const int64_t b = batched ? result.column(0).ints()[row] : 0;
      const int64_t id = result.column(id_col).ints()[row];
      if (b < 0 || b >= batch || id < 0 || id >= per_image) {
        return Status::InternalError("non-dense output ids from ",
                                     model_.output_table);
      }
      out[static_cast<size_t>(b)].at(id) =
          static_cast<float>(result.column(id_col + 1).floats()[row]);
    }
    DL2SQL_RETURN_NOT_OK(Cleanup());
    return out;
  };
  auto out = body();
  db_->set_cost_accumulator(nullptr);
  DL2SQL_RETURN_NOT_OK(out.status());
  if (stats != nullptr) *stats = std::move(local);
  return out;
}

namespace {
int64_t Argmax(const Tensor& t) {
  int64_t best = 0;
  for (int64_t i = 1; i < t.NumElements(); ++i) {
    if (t.at(i) > t.at(best)) best = i;
  }
  return best;
}
}  // namespace

Result<int64_t> Dl2SqlRunner::Predict(const Tensor& input,
                                      PipelineRunStats* stats) {
  DL2SQL_ASSIGN_OR_RETURN(Tensor out, Infer(input, stats));
  if (out.NumElements() == 0) {
    return Status::InternalError("empty pipeline output");
  }
  return Argmax(out);
}

Result<std::vector<int64_t>> Dl2SqlRunner::PredictBatch(
    const std::vector<Tensor>& inputs, PipelineRunStats* stats) {
  DL2SQL_ASSIGN_OR_RETURN(std::vector<Tensor> out, InferBatch(inputs, stats));
  std::vector<int64_t> preds;
  preds.reserve(out.size());
  for (const auto& t : out) {
    if (t.NumElements() == 0) {
      return Status::InternalError("empty pipeline output");
    }
    preds.push_back(Argmax(t));
  }
  return preds;
}

}  // namespace dl2sql::core
