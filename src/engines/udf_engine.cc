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
  // "Model compilation": serialize to the stripped kernel-linkable blob.
  DL2SQL_ASSIGN_OR_RETURN(
      std::string blob,
      nn::SerializeModel(model, nn::ModelFormat::kCompiledBlob));
  auto state = std::make_shared<UdfState>();
  state->blob = std::move(blob);
  state->output = deployment.output;
  state->device = device_.get();
  states_[deployment.udf_name] = state;
  deployments_[deployment.udf_name] = deployment;

  // Estimate per-call cost once for the registry metadata (used only by
  // DL2SQL-OP's hint rules; the blind optimizer here ignores it).
  db::NUdfInfo info;
  info.model_name = model.name();
  info.selectivity = deployment.selectivity;
  info.num_parameters = model.NumParameters();
  DL2SQL_ASSIGN_OR_RETURN(info.fingerprint, nn::ModelFingerprint(model));
  {
    Rng rng(1);
    Tensor probe = Tensor::Random(model.input_shape(), &rng, 1.0f);
    Stopwatch watch;
    DL2SQL_RETURN_NOT_OK(model.Predict(probe, device_.get()).status());
    info.per_call_cost_sec = watch.ElapsedSeconds();
  }

  auto state_ref = state;
  db_.udfs().RegisterNeural(
      deployment.udf_name, ReturnType(deployment.output),
      [state_ref](const std::vector<db::Value>& args) -> Result<db::Value> {
        UdfState& st = *state_ref;
        if (args.size() != 1 || (args[0].type() != db::DataType::kBlob &&
                                 args[0].type() != db::DataType::kString)) {
          return Status::InvalidArgument("nUDF expects one keyframe blob");
        }
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
        // Simulated accelerator traffic: weights once per query, activations
        // per call (the per-call latency is what keeps DB-UDF from gaining
        // on the GPU server, Fig. 8).
        if (st.device->profile().NeedsTransfer()) {
          if (!st.weights_on_device) {
            st.transfer_seconds += st.device->TransferSeconds(
                static_cast<uint64_t>(st.loaded->NumParameters()) *
                sizeof(float));
            st.weights_on_device = true;
          }
          st.transfer_seconds += st.device->TransferSeconds(
              static_cast<uint64_t>(input.NumElements()) * sizeof(float));
          st.transfer_seconds += st.device->TransferSeconds(sizeof(int64_t));
        }
        DL2SQL_ASSIGN_OR_RETURN(int64_t cls,
                                st.loaded->Predict(input, st.device));
        return ToValue(st.output, *st.loaded, cls);
      },
      std::move(info));
  return Status::OK();
}

Status UdfEngine::DeployModelFamily(const ModelFamilyDeployment& family) {
  if (family.variants.empty()) {
    return Status::InvalidArgument("model family '", family.udf_name,
                                   "' has no variants");
  }
  // Compile every variant into its own kernel blob.
  std::vector<std::shared_ptr<UdfState>> variant_states;
  for (size_t i = 0; i < family.variants.size(); ++i) {
    DL2SQL_ASSIGN_OR_RETURN(
        std::string blob,
        nn::SerializeModel(family.variants[i].model,
                           nn::ModelFormat::kCompiledBlob));
    auto st = std::make_shared<UdfState>();
    st->blob = std::move(blob);
    st->output = family.output;
    st->device = device_.get();
    states_[ToLower(family.udf_name) + "#" + std::to_string(i)] = st;
    variant_states.push_back(std::move(st));
  }
  families_[ToLower(family.udf_name)] = family;

  db::NUdfInfo info;
  info.model_name = family.udf_name;
  info.selectivity = family.MergedSelectivity();
  info.num_parameters = family.variants[0].model.NumParameters();
  DL2SQL_ASSIGN_OR_RETURN(info.fingerprint, FamilyFingerprint(family));
  {
    Rng rng(1);
    Tensor probe =
        Tensor::Random(family.variants[0].model.input_shape(), &rng, 1.0f);
    Stopwatch watch;
    DL2SQL_RETURN_NOT_OK(
        family.variants[0].model.Predict(probe, device_.get()).status());
    info.per_call_cost_sec = watch.ElapsedSeconds();
  }

  ModelFamilyDeployment family_copy = family;
  db_.udfs().RegisterNeural(
      family.udf_name, ReturnType(family.output),
      [variant_states, family_copy](
          const std::vector<db::Value>& args) -> Result<db::Value> {
        if (args.size() != 3 || (args[0].type() != db::DataType::kBlob &&
                                 args[0].type() != db::DataType::kString)) {
          return Status::InvalidArgument(
              "family nUDF expects (keyframe, humidity, temperature)");
        }
        DL2SQL_ASSIGN_OR_RETURN(double humidity, args[1].AsDouble());
        DL2SQL_ASSIGN_OR_RETURN(double temperature, args[2].AsDouble());
        UdfState& st =
            *variant_states[family_copy.Select(humidity, temperature)];
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
        if (st.device->profile().NeedsTransfer()) {
          if (!st.weights_on_device) {
            st.transfer_seconds += st.device->TransferSeconds(
                static_cast<uint64_t>(st.loaded->NumParameters()) *
                sizeof(float));
            st.weights_on_device = true;
          }
          st.transfer_seconds += st.device->TransferSeconds(
              static_cast<uint64_t>(input.NumElements()) * sizeof(float));
        }
        DL2SQL_ASSIGN_OR_RETURN(int64_t cls,
                                st.loaded->Predict(input, st.device));
        return ToValue(st.output, *st.loaded, cls);
      },
      std::move(info), nullptr, /*arity=*/3);
  return Status::OK();
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
