/// \file dl2sql_engine.h
/// \brief Tight integration (the paper's DL2SQL / DL2SQL-OP): nUDFs are
/// rewritten into generated SQL over relational parameter tables and run
/// natively by the database.
///
/// Per collaborative query the engine:
///   1. converts every referenced model into relational tables ("load the
///    neural model from relational tables" — the loading cost that grows
///    with depth in Table VI),
///   2. registers each nUDF as a function whose body executes the model's
///    generated SQL pipeline (so nUDF evaluation *is* SQL execution, placed
///    wherever the optimizer decides). Every model is converted in batched
///    form, and one body scores a whole morsel of keyframes in
///    Dl2SqlRunner::InferBatch's sub-batches,
///   3. runs the collaborative query. With hints enabled (DL2SQL-OP) the
///    optimizer applies Section IV-B's rules: scan-time vs delayed nUDF
///    placement by cost, most-selective-first ordering, and symmetric hash
///    joins for nUDF join conditions.
#pragma once

#include "dl2sql/cost_model.h"
#include "dl2sql/pipeline.h"
#include "engines/engine.h"

namespace dl2sql::engines {

class Dl2SqlEngine : public CollaborativeEngine {
 public:
  struct Options {
    /// Hint rules + neural-aware cost model (DL2SQL-OP when true).
    bool enable_optimizer_hints = false;
    /// Re-deploy parameter tables on every query (the paper's benchmark
    /// integrates models on the fly); false caches them across queries.
    bool redeploy_per_query = true;
    /// Conversion options; the engine always converts in batched form
    /// (`convert.batched` is ignored).
    core::ConvertOptions convert;
  };

  Dl2SqlEngine(std::shared_ptr<Device> device, Options options);

  const char* name() const override {
    return options_.enable_optimizer_hints ? "DL2SQL-OP" : "DL2SQL";
  }

  Status DeployModel(const nn::Model& model,
                     const ModelDeployment& deployment) override;

  /// Conditional model families: every variant is converted to its own set
  /// of relational parameter tables; the 3-ary nUDF routes each row's
  /// keyframe through the variant selected by the condition columns.
  Status DeployModelFamily(const ModelFamilyDeployment& family) override;

  Result<db::Table> ExecuteCollaborative(const std::string& sql,
                                         QueryCost* cost) override;

  /// Static relational storage bytes for one deployed model (Table IV).
  Result<uint64_t> RelationalStorageBytes(const std::string& udf_name);

  /// Per-op / per-clause profile aggregated over the nUDF invocations of the
  /// most recent ExecuteCollaborative call (Figs. 9 & 10).
  const core::PipelineRunStats& last_pipeline_stats() const {
    return last_stats_;
  }

  /// Direct access to a converted model (cost-model benches).
  Result<const core::ConvertedModel*> converted_model(
      const std::string& udf_name);

 private:
  struct DeployedModel {
    nn::Model model;
    ModelDeployment deployment;
    /// Valid while deployed; rebuilt per query when redeploy_per_query.
    std::shared_ptr<core::Dl2SqlRunner> runner;
  };

  /// What one nUDF name runs: a plain deployment routes every row to its
  /// one model; a conditional family (3-ary nUDF) routes each row to the
  /// variant its condition columns select.
  struct DeployedNUdf {
    NUdfOutput output = NUdfOutput::kBool;
    std::vector<std::shared_ptr<DeployedModel>> models;
    /// Set for a family only.
    std::shared_ptr<const ModelFamilyDeployment> family;
  };

  /// (Re)builds parameter tables + runner for one model; returns seconds.
  Result<double> Deploy(DeployedModel* m);
  Status Undeploy(DeployedModel* m);
  /// Seconds of one single-image pipeline run (the hint rules' per-call
  /// cost), through a temporary deployment when not cached.
  Result<double> ProbeCallSeconds(DeployedModel* m);
  /// The plain model deployed as nUDF `udf_name`.
  Result<DeployedModel*> FindModel(const std::string& udf_name);
  void RegisterNUdf(const std::string& name,
                    std::shared_ptr<const DeployedNUdf> nudf,
                    db::NUdfInfo info);
  /// The one nUDF body: decodes a morsel of argument rows and runs the rows
  /// routed to each model through its pipeline in InferBatch's sub-batches,
  /// charging decode and input-table time to loading.
  Result<std::vector<db::Value>> Score(
      const DeployedNUdf& nudf, const std::vector<std::vector<db::Value>>& rows);

  Options options_;
  /// Keyed by lower-cased nUDF name.
  std::map<std::string, std::shared_ptr<const DeployedNUdf>> nudfs_;
  /// Accumulates pipeline-internal stats across nUDF calls in one query.
  core::PipelineRunStats last_stats_;
  /// Input-tensor loading seconds accumulated inside nUDF calls (moved from
  /// the inference to the loading bucket after the query).
  double call_loading_seconds_ = 0;
  int prefix_counter_ = 0;
};

}  // namespace dl2sql::engines
