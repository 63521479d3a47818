#include "engines/udf_engine.h"

#include "common/string_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "tensor/tensor_blob.h"

namespace dl2sql::engines {

UdfEngine::UdfEngine(std::shared_ptr<Device> device)
    : CollaborativeEngine(std::move(device)) {}

Status UdfEngine::DeployModel(const nn::Model& model,
                              const ModelDeployment& deployment) {
  auto nudf = std::make_shared<DeployedNUdf>();
  DL2SQL_ASSIGN_OR_RETURN(
      std::shared_ptr<UdfState> state,
      Compile(model, deployment.output, deployment.udf_name));
  nudf->models.push_back(std::move(state));
  deployments_[deployment.udf_name] = deployment;

  db::NUdfInfo info;
  info.model_name = model.name();
  info.selectivity = deployment.selectivity;
  DL2SQL_ASSIGN_OR_RETURN(info.fingerprint, nn::ModelFingerprint(model));
  return RegisterNUdf(deployment.udf_name, std::move(nudf), model,
                      std::move(info));
}

Status UdfEngine::DeployModelFamily(const ModelFamilyDeployment& family) {
  if (family.variants.empty()) {
    return Status::InvalidArgument("model family '", family.udf_name,
                                   "' has no variants");
  }
  // Compile every variant into its own kernel blob.
  auto nudf = std::make_shared<DeployedNUdf>();
  for (size_t i = 0; i < family.variants.size(); ++i) {
    DL2SQL_ASSIGN_OR_RETURN(
        std::shared_ptr<UdfState> state,
        Compile(family.variants[i].model, family.output,
                ToLower(family.udf_name) + "#" + std::to_string(i)));
    nudf->models.push_back(std::move(state));
  }
  nudf->family = std::make_shared<const ModelFamilyDeployment>(family);

  db::NUdfInfo info;
  info.model_name = family.udf_name;
  info.selectivity = family.MergedSelectivity();
  DL2SQL_ASSIGN_OR_RETURN(info.fingerprint, FamilyFingerprint(family));
  return RegisterNUdf(family.udf_name, std::move(nudf),
                      family.variants[0].model, std::move(info));
}

Result<std::shared_ptr<UdfEngine::UdfState>> UdfEngine::Compile(
    const nn::Model& model, NUdfOutput output, const std::string& key) {
  DL2SQL_ASSIGN_OR_RETURN(
      std::string blob,
      nn::SerializeModel(model, nn::ModelFormat::kCompiledBlob));
  auto state = std::make_shared<UdfState>();
  state->blob = std::move(blob);
  state->output = output;
  states_[key] = state;
  return state;
}

Status UdfEngine::RegisterNUdf(const std::string& name,
                               std::shared_ptr<const DeployedNUdf> nudf,
                               const nn::Model& probe, db::NUdfInfo info) {
  info.num_parameters = probe.NumParameters();
  // Per-call cost for the registry metadata (used only by DL2SQL-OP's hint
  // rules; the blind optimizer here ignores it).
  Rng rng(1);
  const Tensor input = Tensor::Random(probe.input_shape(), &rng, 1.0f);
  Stopwatch watch;
  DL2SQL_RETURN_NOT_OK(probe.Predict(input, device_.get()).status());
  info.per_call_cost_sec = watch.ElapsedSeconds();
  const int arity = nudf->family != nullptr ? 3 : 1;
  const NUdfOutput output = nudf->models[0]->output;
  db_.udfs().RegisterNeural(
      name, ReturnType(output),
      [this, nudf](const std::vector<db::Value>& args) {
        return Score(*nudf, args);
      },
      std::move(info), nullptr, arity);
  return Status::OK();
}

Result<db::Value> UdfEngine::Score(const DeployedNUdf& nudf,
                                   const std::vector<db::Value>& args) const {
  const bool family = nudf.family != nullptr;
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
  UdfState& st = *nudf.models[v];
  // Lazy in-kernel load of the compiled blob (charged as loading).
  if (st.loaded == nullptr) {
    Stopwatch load_watch;
    DL2SQL_ASSIGN_OR_RETURN(nn::Model m, nn::DeserializeModel(st.blob));
    st.loaded = std::make_shared<nn::Model>(std::move(m));
    st.loading_seconds += load_watch.ElapsedSeconds();
    st.weights_on_device = false;
  }
  Stopwatch decode_watch;
  DL2SQL_ASSIGN_OR_RETURN(Tensor input,
                          DecodeTensorBlob(args[0].string_value()));
  st.loading_seconds += decode_watch.ElapsedSeconds();
  // Simulated accelerator traffic: weights once per query, activations and
  // the result per call (the per-call latency is what keeps DB-UDF from
  // gaining on the GPU server, Fig. 8).
  if (device_->profile().NeedsTransfer()) {
    if (!st.weights_on_device) {
      st.transfer_seconds += device_->TransferSeconds(
          static_cast<uint64_t>(st.loaded->NumParameters()) * sizeof(float));
      st.weights_on_device = true;
    }
    st.transfer_seconds += device_->TransferSeconds(
        static_cast<uint64_t>(input.NumElements()) * sizeof(float));
    st.transfer_seconds += device_->TransferSeconds(sizeof(int64_t));
  }
  DL2SQL_ASSIGN_OR_RETURN(int64_t cls,
                          st.loaded->Predict(input, device_.get()));
  return ToValue(st.output, *st.loaded, cls);
}

Result<db::Table> UdfEngine::ExecuteCollaborative(const std::string& sql,
                                                  QueryCost* cost) {
  DL2SQL_TRACE_SPAN("engine", "udf.query");
  // Models are (re)integrated per query, per the paper's benchmark setup.
  {
    DL2SQL_TRACE_SPAN("engine", "udf.integrate");
    for (auto& [_, st] : states_) {
      st->loaded = nullptr;
      st->weights_on_device = false;
      st->loading_seconds = 0;
      st->transfer_seconds = 0;
    }
  }
  CostAccumulator acc;
  Result<db::Table> result = [&] {
    DL2SQL_TRACE_SPAN("engine", "udf.exec");
    return db_.Execute(sql, &acc);
  }();
  DL2SQL_RETURN_NOT_OK(result.status());

  if (cost != nullptr) {
    const DeviceProfile& prof = device_->profile();
    QueryCost measured = SplitBuckets(acc);
    double load_cpu = 0;
    double transfer = 0;
    double integration = 0;
    for (auto& [_, st] : states_) {
      // Loading work happened inside timed UDF calls: move it from the
      // inference bucket to the loading bucket.
      load_cpu += st->loading_seconds;
      transfer += st->transfer_seconds;
      // Each model actually invoked was freshly integrated into the kernel
      // (recompile + reload), the structural cost of loose integration.
      if (st->loaded != nullptr) integration += kUdfIntegrationSeconds;
    }
    QueryCost c;
    c.inference_seconds =
        std::max(0.0, measured.inference_seconds - load_cpu) *
        prof.compute_scale;
    c.loading_seconds = load_cpu * CpuFactor() + transfer +
                        integration * CpuFactor() +
                        measured.loading_seconds;
    c.relational_seconds = measured.relational_seconds * RelationalFactor();
    *cost = c;
  }
  return result;
}

Result<uint64_t> UdfEngine::CompiledBlobBytes(const std::string& udf_name) const {
  auto it = states_.find(udf_name);
  if (it == states_.end()) {
    return Status::NotFound("no deployed model for ", udf_name);
  }
  return static_cast<uint64_t>(it->second->blob.size());
}

}  // namespace dl2sql::engines
