#include "engines/dl2sql_engine.h"

#include <cctype>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "nn/serialize.h"
#include "tensor/tensor_blob.h"

namespace dl2sql::engines {

namespace {

db::DataType ReturnType(NUdfOutput output) {
  switch (output) {
    case NUdfOutput::kBool:
      return db::DataType::kBool;
    case NUdfOutput::kLabel:
      return db::DataType::kString;
    case NUdfOutput::kClassId:
      return db::DataType::kInt64;
  }
  return db::DataType::kNull;
}

db::Value ToValue(NUdfOutput output, const nn::Model& model, int64_t cls) {
  switch (output) {
    case NUdfOutput::kBool:
      return db::Value::Bool(cls == 1);
    case NUdfOutput::kLabel:
      return db::Value::String(model.classes()[static_cast<size_t>(cls)]);
    case NUdfOutput::kClassId:
      return db::Value::Int(cls);
  }
  return db::Value::Null();
}

/// True if lower-cased `sql` names `name` as a whole identifier, not inside
/// a longer one (nudf_detect inside nudf_detect_1).
bool NamesIdentifier(const std::string& sql, const std::string& name) {
  auto ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  for (size_t at = sql.find(name); at != std::string::npos;
       at = sql.find(name, at + 1)) {
    const size_t end = at + name.size();
    if ((at == 0 || !ident(sql[at - 1])) &&
        (end == sql.size() || !ident(sql[end]))) {
      return true;
    }
  }
  return false;
}

}  // namespace

Dl2SqlEngine::Dl2SqlEngine(std::shared_ptr<Device> device, Options options)
    : CollaborativeEngine(std::move(device)), options_(std::move(options)) {
  db_.optimizer_options().enable_nudf_hints = options_.enable_optimizer_hints;
  if (options_.enable_optimizer_hints) {
    db_.optimizer_options().cost_model =
        std::make_shared<db::NeuralAwareCostModel>();
  }
}

Status Dl2SqlEngine::DeployModel(const nn::Model& model,
                                 const ModelDeployment& deployment) {
  auto m = std::make_shared<DeployedModel>();
  m->model = model;
  m->deployment = deployment;
  deployments_[deployment.udf_name] = deployment;
  if (!options_.redeploy_per_query) {
    DL2SQL_RETURN_NOT_OK(Deploy(m.get()).status());
  }

  db::NUdfInfo info;
  info.model_name = model.name();
  info.selectivity = deployment.selectivity;
  info.num_parameters = model.NumParameters();
  DL2SQL_ASSIGN_OR_RETURN(info.per_call_cost_sec, ProbeCallSeconds(m.get()));
  // ValueOr(0): a model that fails to serialize simply stays uncacheable.
  info.fingerprint = nn::ModelFingerprint(model).ValueOr(0);

  auto nudf = std::make_shared<DeployedNUdf>();
  nudf->output = deployment.output;
  nudf->models.push_back(std::move(m));
  RegisterNUdf(deployment.udf_name, std::move(nudf), std::move(info));
  return Status::OK();
}

Result<double> Dl2SqlEngine::Deploy(DeployedModel* m) {
  DL2SQL_TRACE_SPAN("engine", "dl2sql.deploy",
                    "\"udf\":\"" + m->deployment.udf_name + "\"");
  static Counter* const deployments =
      MetricsRegistry::Global().counter("dl2sql.model_deployments");
  deployments->Increment();
  Stopwatch watch;
  core::ConvertOptions copts = options_.convert;
  // nUDFs score a morsel of keyframes per call, one pipeline run per
  // sub-batch (Dl2SqlRunner::InferBatch).
  copts.batched = true;
  // Sanitize to a valid SQL identifier (family variants are named "fam#i").
  std::string stem = ToLower(m->deployment.udf_name);
  for (char& c : stem) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') c = '_';
  }
  copts.table_prefix = "nn_" + stem + std::to_string(prefix_counter_++);
  DL2SQL_ASSIGN_OR_RETURN(core::ConvertedModel converted,
                          core::ConvertModel(m->model, copts, &db_));
  m->runner = std::make_shared<core::Dl2SqlRunner>(&db_, std::move(converted));
  return watch.ElapsedSeconds();
}

Status Dl2SqlEngine::Undeploy(DeployedModel* m) {
  if (m->runner == nullptr) return Status::OK();
  for (const auto& t : m->runner->model().static_tables) {
    DL2SQL_RETURN_NOT_OK(db_.catalog().DropTable(t, true));
  }
  m->runner = nullptr;
  return Status::OK();
}

Result<double> Dl2SqlEngine::ProbeCallSeconds(DeployedModel* m) {
  const bool was_deployed = m->runner != nullptr;
  if (!was_deployed) {
    DL2SQL_RETURN_NOT_OK(Deploy(m).status());
  }
  Rng rng(1);
  Tensor probe = Tensor::Random(m->model.input_shape(), &rng, 1.0f);
  Stopwatch watch;
  DL2SQL_RETURN_NOT_OK(m->runner->Predict(probe).status());
  const double seconds = watch.ElapsedSeconds();
  if (!was_deployed) {
    DL2SQL_RETURN_NOT_OK(Undeploy(m));
  }
  return seconds;
}

Result<Dl2SqlEngine::DeployedModel*> Dl2SqlEngine::FindModel(
    const std::string& udf_name) {
  auto it = nudfs_.find(ToLower(udf_name));
  if (it == nudfs_.end() || it->second->family != nullptr) {
    return Status::NotFound("no deployed model for ", udf_name);
  }
  return it->second->models[0].get();
}

void Dl2SqlEngine::RegisterNUdf(const std::string& name,
                                std::shared_ptr<const DeployedNUdf> nudf,
                                db::NUdfInfo info) {
  nudfs_[ToLower(name)] = nudf;
  const int arity = nudf->family != nullptr ? 3 : 1;
  const db::DataType ret = ReturnType(nudf->output);
  db::BatchFn batch_fn =
      [this, nudf](const std::vector<std::vector<db::Value>>& rows) {
        return Score(*nudf, rows);
      };
  // Row-at-a-time callers score a morsel of one row.
  db::ScalarFn fn =
      [batch_fn](const std::vector<db::Value>& args) -> Result<db::Value> {
    DL2SQL_ASSIGN_OR_RETURN(std::vector<db::Value> out, batch_fn({args}));
    return out.front();
  };
  db_.udfs().RegisterNeural(name, ret, std::move(fn), std::move(info),
                            std::move(batch_fn), arity);
}

Result<std::vector<db::Value>> Dl2SqlEngine::Score(
    const DeployedNUdf& nudf, const std::vector<std::vector<db::Value>>& rows) {
  const bool family = nudf.family != nullptr;
  // Route each row to its model, decoding its keyframe.
  std::vector<std::vector<size_t>> routed(nudf.models.size());
  std::vector<std::vector<Tensor>> inputs(nudf.models.size());
  Stopwatch decode_watch;
  for (size_t r = 0; r < rows.size(); ++r) {
    const std::vector<db::Value>& args = rows[r];
    if (args.size() != (family ? 3u : 1u) ||
        (args[0].type() != db::DataType::kBlob &&
         args[0].type() != db::DataType::kString)) {
      return Status::InvalidArgument(
          family ? "family nUDF expects (keyframe, humidity, temperature)"
                 : "nUDF expects one keyframe blob");
    }
    size_t v = 0;
    if (family) {
      DL2SQL_ASSIGN_OR_RETURN(double humidity, args[1].AsDouble());
      DL2SQL_ASSIGN_OR_RETURN(double temperature, args[2].AsDouble());
      v = nudf.family->Select(humidity, temperature);
    }
    DL2SQL_ASSIGN_OR_RETURN(Tensor input,
                            DecodeTensorBlob(args[0].string_value()));
    routed[v].push_back(r);
    inputs[v].push_back(std::move(input));
  }
  call_loading_seconds_ += decode_watch.ElapsedSeconds();

  std::vector<db::Value> out(rows.size());
  for (size_t v = 0; v < nudf.models.size(); ++v) {
    if (routed[v].empty()) continue;
    const DeployedModel& m = *nudf.models[v];
    if (m.runner == nullptr) {
      return Status::InternalError("nUDF called before model deployment");
    }
    // The pipeline's recursive SQL runs under its own accumulator so the
    // outer query's relational buckets stay clean; the whole call is still
    // charged to "inference" by the expression evaluator.
    core::PipelineRunStats stats;
    CostAccumulator* outer = db_.cost_accumulator();
    auto preds = m.runner->PredictBatch(inputs[v], &stats);
    db_.set_cost_accumulator(outer);
    DL2SQL_RETURN_NOT_OK(preds.status());
    call_loading_seconds_ += stats.load_seconds;
    // Per-op and per-clause profiles for Figs. 9-10.
    last_stats_.Merge(stats);
    for (size_t i = 0; i < routed[v].size(); ++i) {
      out[routed[v][i]] = ToValue(nudf.output, m.model, (*preds)[i]);
    }
  }
  return out;
}

Status Dl2SqlEngine::DeployModelFamily(const ModelFamilyDeployment& family) {
  if (family.variants.empty()) {
    return Status::InvalidArgument("model family '", family.udf_name,
                                   "' has no variants");
  }
  auto nudf = std::make_shared<DeployedNUdf>();
  nudf->output = family.output;
  nudf->family = std::make_shared<const ModelFamilyDeployment>(family);
  for (size_t i = 0; i < family.variants.size(); ++i) {
    auto m = std::make_shared<DeployedModel>();
    m->model = family.variants[i].model;
    m->deployment.udf_name =
        family.udf_name + "#" + std::to_string(i);
    m->deployment.output = family.output;
    m->deployment.selectivity = family.variants[i].selectivity;
    if (!options_.redeploy_per_query) {
      DL2SQL_RETURN_NOT_OK(Deploy(m.get()).status());
    }
    nudf->models.push_back(std::move(m));
  }

  db::NUdfInfo info;
  info.model_name = family.udf_name;
  info.selectivity = family.MergedSelectivity();
  info.num_parameters = family.variants[0].model.NumParameters();
  // Per-call cost probe on the first variant (drives the hint rules).
  DL2SQL_ASSIGN_OR_RETURN(info.per_call_cost_sec,
                          ProbeCallSeconds(nudf->models[0].get()));
  DL2SQL_ASSIGN_OR_RETURN(info.fingerprint, FamilyFingerprint(family));
  RegisterNUdf(family.udf_name, std::move(nudf), std::move(info));
  return Status::OK();
}

Result<db::Table> Dl2SqlEngine::ExecuteCollaborative(const std::string& sql,
                                                     QueryCost* cost) {
  DL2SQL_TRACE_SPAN("engine", "dl2sql.query");
  QueryCost local;
  last_stats_ = core::PipelineRunStats{};
  call_loading_seconds_ = 0;

  // Integrate referenced models on the fly: conversion to relational tables
  // is this strategy's model-loading cost.
  const DeviceProfile& prof = device_->profile();
  double transfer_seconds = 0;
  std::vector<DeployedModel*> deployed_now;
  // Every model of each nUDF the query names (a family's every variant).
  const std::string lower_sql = ToLower(sql);
  std::vector<DeployedModel*> referenced;
  for (const auto& [lname, nudf] : nudfs_) {
    if (!NamesIdentifier(lower_sql, lname)) continue;
    for (const auto& m : nudf->models) referenced.push_back(m.get());
  }
  for (DeployedModel* m : referenced) {
    if (m->runner == nullptr) {
      DL2SQL_ASSIGN_OR_RETURN(double secs, Deploy(m));
      local.loading_seconds += secs;
      deployed_now.push_back(m);
    } else {
      // Relational deployment survived from a previous query (cache_models
      // mode): no conversion cost this time.
      static Counter* const cache_hits =
          MetricsRegistry::Global().counter("dl2sql.model_cache_hits");
      cache_hits->Increment();
    }
    if (prof.NeedsTransfer()) {
      // GPU mode ships the parameter tables to device memory per query —
      // the I/O that inflates DL2SQL's GPU loading cost in Fig. 8.
      auto bytes = core::StaticStorageBytes(m->runner->model(), db_,
                                            /*compressed=*/false);
      if (bytes.ok()) transfer_seconds += device_->TransferSeconds(*bytes);
    }
  }

  CostAccumulator acc;
  db_.set_cost_accumulator(&acc);
  Result<db::Table> result = [&] {
    DL2SQL_TRACE_SPAN("engine", "dl2sql.exec");
    return db_.Execute(sql);
  }();
  // The nUDF body nulls the accumulator before recursing; restore & clear.
  db_.set_cost_accumulator(nullptr);

  if (options_.redeploy_per_query) {
    for (DeployedModel* m : deployed_now) {
      DL2SQL_RETURN_NOT_OK(Undeploy(m));
    }
  }
  DL2SQL_RETURN_NOT_OK(result.status());

  QueryCost from_buckets = SplitBuckets(acc);
  // Device scaling: the generated neural SQL runs in the (calibrated)
  // database engine; on the GPU profile the dense neural ops are offloaded,
  // so the faster of the two factors applies. The outer query and loading
  // work run at the host's database/CPU speed; modeled transfers are
  // absolute.
  const double sql_inference_factor =
      std::min(prof.compute_scale, prof.relational_scale) *
      kSqlEngineCalibration;
  local.relational_seconds +=
      from_buckets.relational_seconds * RelationalFactor();
  // Inference bucket holds whole nUDF call durations; move the input-loading
  // share into the loading bucket.
  local.inference_seconds +=
      std::max(0.0, from_buckets.inference_seconds - call_loading_seconds_) *
      sql_inference_factor;
  local.loading_seconds =
      (local.loading_seconds + call_loading_seconds_ +
       from_buckets.loading_seconds) *
          CpuFactor() +
      transfer_seconds;
  if (cost != nullptr) *cost = local;
  return result;
}

Result<uint64_t> Dl2SqlEngine::RelationalStorageBytes(
    const std::string& udf_name) {
  DL2SQL_ASSIGN_OR_RETURN(DeployedModel* m, FindModel(udf_name));
  const bool was_deployed = m->runner != nullptr;
  if (!was_deployed) {
    DL2SQL_RETURN_NOT_OK(Deploy(m).status());
  }
  DL2SQL_ASSIGN_OR_RETURN(uint64_t bytes,
                          core::StaticStorageBytes(m->runner->model(), db_));
  if (!was_deployed) {
    DL2SQL_RETURN_NOT_OK(Undeploy(m));
  }
  return bytes;
}

Result<const core::ConvertedModel*> Dl2SqlEngine::converted_model(
    const std::string& udf_name) {
  DL2SQL_ASSIGN_OR_RETURN(DeployedModel* m, FindModel(udf_name));
  if (m->runner == nullptr) {
    DL2SQL_RETURN_NOT_OK(Deploy(m).status());
  }
  return &m->runner->model();
}

}  // namespace dl2sql::engines
