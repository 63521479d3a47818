/// \file udf_engine.h
/// \brief Loose integration (the paper's DB-UDF): the model is compiled to an
/// opaque binary blob linked into the database kernel and invoked as a
/// scalar UDF.
///
/// The optimizer treats the UDF as a black box (no hint rules, no cost), so
/// nUDF predicates are evaluated wherever pushdown puts ordinary predicates —
/// at the scan — incurring full inference cost (Table III's "UDF cannot be
/// optimized by the database's optimizer").
#pragma once

#include "engines/engine.h"
#include "nn/serialize.h"

namespace dl2sql::engines {

class UdfEngine : public CollaborativeEngine {
 public:
  explicit UdfEngine(std::shared_ptr<Device> device);

  const char* name() const override { return "DB-UDF"; }

  Status DeployModel(const nn::Model& model,
                     const ModelDeployment& deployment) override;

  /// Conditional model families: each variant is compiled to its own blob;
  /// the 3-ary nUDF selects the variant per row from the condition columns.
  Status DeployModelFamily(const ModelFamilyDeployment& family) override;

  Result<db::Table> ExecuteCollaborative(const std::string& sql,
                                         QueryCost* cost) override;

  /// Compiled blob size for a deployed model (Table IV storage accounting).
  Result<uint64_t> CompiledBlobBytes(const std::string& udf_name) const;

 private:
  struct UdfState {
    std::string blob;  ///< the "compiled" model binary
    std::shared_ptr<nn::Model> loaded;  ///< nullptr until first call
    NUdfOutput output = NUdfOutput::kBool;
    /// Seconds spent inside UDF calls on CPU loading work (blob
    /// deserialization, input decode); subtracted from the inference bucket
    /// after each query.
    double loading_seconds = 0;
    /// Modeled host<->accelerator transfer seconds (absolute, not subject to
    /// device speed scaling).
    double transfer_seconds = 0;
    /// Model parameter bytes shipped to the accelerator once per query.
    bool weights_on_device = false;
  };

  /// What one nUDF name runs: a plain deployment's one compiled model, or a
  /// family's variants, one picked per row by its condition columns.
  struct DeployedNUdf {
    std::vector<std::shared_ptr<UdfState>> models;
    /// Set for a family only.
    std::shared_ptr<const ModelFamilyDeployment> family;
  };

  /// "Model compilation" into a kernel blob, kept as states_[key].
  Result<std::shared_ptr<UdfState>> Compile(const nn::Model& model,
                                            NUdfOutput output,
                                            const std::string& key);
  /// Registers `nudf` under `name` with the one nUDF body, Score; `probe`
  /// gives the registry's parameter count and per-call cost.
  Status RegisterNUdf(const std::string& name,
                      std::shared_ptr<const DeployedNUdf> nudf,
                      const nn::Model& probe, db::NUdfInfo info);
  /// The one nUDF body, called once per row: picks the row's model (a
  /// family's variant by its condition columns), loads the blob on first
  /// use, decodes the keyframe, charges modeled transfers and predicts.
  Result<db::Value> Score(const DeployedNUdf& nudf,
                          const std::vector<db::Value>& args) const;

  /// Every compiled model, a family's variants keyed "<family>#<i>"; all
  /// share the per-query accounting.
  std::map<std::string, std::shared_ptr<UdfState>> states_;
};

}  // namespace dl2sql::engines
