/// \file converter.h
/// \brief DL2SQL model-to-relational conversion (Section III-C).
///
/// A trained minidl Model is turned into:
///  - *static* relational tables holding its parameters and geometry:
///    kernel tables {KernelID, OrderID, Value} (Fig. 3), kernel-mapping
///    tables {MatrixID, OrderID, TupleID} generated offline per Algorithm 2,
///    bias / batch-norm parameter tables, and FC weight tables; and
///  - *runtime* SQL statements per layer: the Q1 conv join + group-by, the
///    Q2 reshape join, the Q3 pooling aggregation, BN/ReLU math expressions,
///    and the residual-link addition of Q5.
///
/// Layout conventions (this repo's multi-channel generalization of the
/// paper's per-channel tables, see DESIGN.md):
///  - flat activations are tables (TupleID, Value) with channel-major
///    TupleID = c * H*W + y * W + x;
///  - a conv FeatureMap table row is (MatrixID, OrderID, Value) where
///    MatrixID is the output-pixel window and OrderID = ic*k*k + i*k + j
///    indexes the patch across all input channels (im2col order);
///  - kernel tables carry all output channels: KernelID = oc.
///
/// Zero padding needs no storage: padded positions simply have no FeatureMap
/// rows, and SUM over the join treats them as zero contributions.
#pragma once

#include <string>
#include <vector>

#include "db/database.h"
#include "nn/model.h"

namespace dl2sql::core {

/// Pre-join strategies of Fig. 11.
enum class PreJoinStrategy : int {
  /// Faithful Q1/Q2/Q3 pipeline: reshape join + kernel join per conv.
  kNone = 0,
  /// Kernel tables are pre-joined with the mapping tables offline, removing
  /// the Q2 reshape join (one join + group-by per conv).
  kPreJoinMapping = 1,
  /// kPreJoinMapping plus folding BatchNorm affine parameters into the
  /// pre-joined weights/biases offline, removing the BN statements entirely.
  kPreJoinFull = 2,
};

/// How BatchNorm is translated.
enum class BnSqlMode : int {
  /// Inference semantics: per-channel affine from frozen running stats
  /// (matches the native model bit-for-bit up to float error).
  kRunningStats = 0,
  /// The paper's Q4 formula: normalize by the *current* feature map's mean
  /// and stddevSamp via scalar subqueries. Kept for fidelity demonstrations;
  /// does not match native inference numerically.
  kPaperBatchStats = 1,
};

struct ConvertOptions {
  std::string table_prefix = "m";
  PreJoinStrategy prejoin = PreJoinStrategy::kNone;
  BnSqlMode bn_mode = BnSqlMode::kRunningStats;
  /// Translate ReLU as the paper's Q5 UPDATE (true) or as a greatest()
  /// projection (false).
  bool relu_as_update = false;
  /// Build hash indexes on the static parameter tables' join columns
  /// (Section IV-A: "we build indices on columns MatrixID, OrderID, and
  /// KernelID"). Disable only for ablation measurements.
  bool build_indexes = true;
  /// Batched pipelines: every activation table carries a BatchID column and
  /// one pipeline run infers a whole batch of keyframes (the paper notes
  /// nUDFs are "performed in a batch manner"). Static parameter tables are
  /// shared across the batch; group-bys and residual joins key on BatchID.
  bool batched = false;
};

/// Geometry of one translated layer (drives the custom cost model).
struct LayerGeometry {
  int64_t in_c = 0, in_h = 0, in_w = 0;
  int64_t out_c = 0, out_h = 0, out_w = 0;
  int64_t kernel = 0, stride = 1, pad = 0;
};

/// One translated primitive operator.
struct ConvertedOp {
  nn::LayerKind kind;
  std::string layer_name;
  /// Statements executed at inference time, in order. Tables they create are
  /// recreated on every run (the runner prepends DROP TABLE IF EXISTS).
  std::vector<std::string> runtime_sql;
  /// Name of the flat (TupleID, Value) table produced by this op.
  std::string output_table;
  LayerGeometry geom;
};

/// A fully converted model.
struct ConvertedModel {
  std::string prefix;
  std::string model_name;
  int64_t num_classes = 0;
  Shape input_shape;
  /// Flat input table the runner fills per inference: (TupleID, Value).
  std::string input_table;
  std::string output_table;
  std::vector<ConvertedOp> ops;
  /// Names of the static parameter tables deployed into the catalog.
  std::vector<std::string> static_tables;
  ConvertOptions options;

  /// Every table this run creates at inference time (for cleanup).
  std::vector<std::string> RuntimeTables() const;

  /// Rows per image of the widest table one run builds, from the ops'
  /// geometry: the input, every conv/pool output, and every windowed op's
  /// im2col form (one row per output pixel and patch entry, the Q2 reshape
  /// table of a conv).
  int64_t WidestTableRows() const;
};

/// Converts `model` and deploys its static tables into `db`'s catalog.
/// Fails for unsupported layer kinds (Table II's "Unsupported" rows).
Result<ConvertedModel> ConvertModel(const nn::Model& model,
                                    const ConvertOptions& options,
                                    db::Database* db);

/// Total catalog bytes of the converted model's static tables (Table IV),
/// as stored with the columnar codec (delta-varint IDs + float32 values),
/// matching how ClickHouse would persist them. Pass compressed=false for raw
/// in-memory bytes.
Result<uint64_t> StaticStorageBytes(const ConvertedModel& model,
                                    const db::Database& db,
                                    bool compressed = true);

/// \name Offline table generators (exposed for unit tests)
/// @{

/// Algorithm 2 (multi-channel form): kernel-mapping rows for reshaping a flat
/// (TupleID, Value) activation of shape in_c x in_h x in_w into conv windows.
/// Rows: (MatrixID, OrderID, TupleID); padded positions are omitted.
db::Table GenerateMappingTable(const LayerGeometry& g);

/// Pooling window map: (MatrixID, TupleID) with channel-major MatrixID.
db::Table GeneratePoolingMap(int64_t channels, int64_t in_h, int64_t in_w,
                             int64_t window, int64_t stride);

/// Kernel table (Fig. 3): (KernelID, OrderID, Value) in im2col OrderID order.
db::Table GenerateKernelTable(const Tensor& weight);

/// Pre-joined mapping x kernel: (KernelID, MatrixID, TupleID, Weight).
db::Table GeneratePreJoinedKernel(const LayerGeometry& g, const Tensor& weight);

/// @}

}  // namespace dl2sql::core
