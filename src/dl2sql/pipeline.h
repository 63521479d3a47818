/// \file pipeline.h
/// \brief Runs a converted model's generated SQL inside the database and
/// profiles it (inference cost, loading cost, per-block and per-clause
/// breakdowns for Figs. 8-11).
#pragma once

#include "common/timer.h"
#include "dl2sql/converter.h"

namespace dl2sql::core {

/// Profiling output of one inference run.
struct PipelineRunStats {
  /// Seconds spent materializing the input tensor as the flat input table.
  double load_seconds = 0;
  /// Seconds spent executing the generated SQL statements.
  double infer_seconds = 0;
  /// Per-op wall seconds in execution order: (layer label, op kind, secs).
  struct OpTime {
    std::string label;
    nn::LayerKind kind;
    double seconds;
  };
  std::vector<OpTime> per_op;
  /// Per-SQL-clause cost buckets ("scan", "join", "groupby", ...) as charged
  /// by the database executor during this run (Fig. 10).
  CostAccumulator clause_costs;

  /// Adds `other` (a later run) into this profile: seconds and clause buckets
  /// sum, and each of other's ops adds its seconds to this profile's op of
  /// the same (label, kind), or is appended when there is none, so runs of
  /// different models keep every op under its own kind.
  void Merge(const PipelineRunStats& other);
};

/// \brief Executes a ConvertedModel's SQL pipeline.
class Dl2SqlRunner {
 public:
  Dl2SqlRunner(db::Database* db, ConvertedModel model)
      : db_(db), model_(std::move(model)) {}

  /// Rows the widest intermediate table of one batched pipeline run may
  /// hold. bench/ablation_batching, fig8 repository model (3x16x16
  /// keyframes, widest table 1,728 rows per image), 128 keyframes, five runs
  /// on a shared 4-vCPU VM, ms per image: per-image pipeline 1.3-1.8; runs
  /// of 1 image 1.4-2.2, 8: 0.5-0.9, 16: 0.5-0.8, 32: 0.5-0.8, 64: 0.5-0.8,
  /// all 128: 0.5-0.8; this budget's 37: 0.4-0.7. The gain flattens past 16
  /// images; the bound keeps a larger model's tables, and the hash tables
  /// built over them, from growing with the morsel.
  static constexpr int64_t kSubBatchRowBudget = 1 << 16;

  const ConvertedModel& model() const { return model_; }

  /// Images per pipeline run in InferBatch: kSubBatchRowBudget over the
  /// model's ConvertedModel::WidestTableRows(), at least 1; always 1 for a
  /// per-image conversion.
  int64_t sub_batch_size() const;

  /// Runs the full pipeline on one input; returns the output activation
  /// (class probabilities for classifier models), ordered by TupleID.
  Result<Tensor> Infer(const Tensor& input, PipelineRunStats* stats = nullptr);

  /// Runs a whole batch in near-equal sub-batches of at most
  /// sub_batch_size() images, one pipeline execution each (per-image
  /// BatchIDs for a batch-converted model, ConvertOptions::batched). Returns
  /// one activation per input; `stats` merges every run's profile.
  Result<std::vector<Tensor>> InferBatch(const std::vector<Tensor>& inputs,
                                         PipelineRunStats* stats = nullptr);

  /// One pipeline execution over all `inputs`, whatever their rows: what
  /// InferBatch runs per sub-batch, exposed for the batching ablation. A
  /// per-image conversion takes exactly one input.
  Result<std::vector<Tensor>> InferSubBatch(const std::vector<Tensor>& inputs,
                                            PipelineRunStats* stats = nullptr);

  /// Argmax over Infer().
  Result<int64_t> Predict(const Tensor& input, PipelineRunStats* stats = nullptr);

  /// Argmax per batch element.
  Result<std::vector<int64_t>> PredictBatch(const std::vector<Tensor>& inputs,
                                            PipelineRunStats* stats = nullptr);

 private:
  Status LoadInputs(const std::vector<Tensor>& inputs);
  Status RunStatements(PipelineRunStats* stats);

  db::Database* db_;
  ConvertedModel model_;
};

}  // namespace dl2sql::core
