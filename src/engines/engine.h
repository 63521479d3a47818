/// \file engine.h
/// \brief Common interface of the three collaborative-query strategies
/// (Section III): independent processing, loose integration (UDF), and tight
/// integration (DL2SQL / DL2SQL-OP).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "accel/device.h"
#include "db/database.h"
#include "nn/model.h"

namespace dl2sql::engines {

/// The paper's three-way cost breakdown (Fig. 8): loading cost (models and
/// data into the system + cross-system I/O), inference cost, and relational
/// algebra cost.
struct QueryCost {
  double loading_seconds = 0;
  double inference_seconds = 0;
  double relational_seconds = 0;

  double Total() const {
    return loading_seconds + inference_seconds + relational_seconds;
  }

  QueryCost& operator+=(const QueryCost& o) {
    loading_seconds += o.loading_seconds;
    inference_seconds += o.inference_seconds;
    relational_seconds += o.relational_seconds;
    return *this;
  }

  QueryCost operator/(double n) const {
    return {loading_seconds / n, inference_seconds / n,
            relational_seconds / n};
  }
};

/// How a deployed model's prediction surfaces as an nUDF return value.
enum class NUdfOutput : int {
  kBool,     ///< detect-style: TRUE iff predicted class index is 1
  kLabel,    ///< classify-style: the predicted class label string
  kClassId,  ///< recog-style: the predicted class index (e.g. a pattern ID)
};

/// The nUDF return type of an output kind.
db::DataType ReturnType(NUdfOutput output);

/// The nUDF value of `model`'s prediction `cls` (a class index).
db::Value ToValue(NUdfOutput output, const nn::Model& model, int64_t cls);

/// Everything a deployed model needs.
struct ModelDeployment {
  std::string udf_name;
  NUdfOutput output = NUdfOutput::kBool;
  db::NUdfSelectivity selectivity;  ///< offline class histogram (Eq. 10)
};

/// \brief A conditional model family (the paper's Type 3 motivation:
/// "various models are trained for different humidity and temperature
/// combinations", and Q_db's output decides which model runs).
///
/// The family is exposed as a 3-ary nUDF
/// `name(keyframe, humidity, temperature)`: per row, the first variant whose
/// humidity/temperature minimums are satisfied is selected (order the
/// variants most-specific first; the last one should be a catch-all).
struct ModelFamilyDeployment {
  struct Variant {
    double humidity_min = 0;
    double temperature_min = 0;
    nn::Model model;
    db::NUdfSelectivity selectivity;
  };
  std::string udf_name;
  NUdfOutput output = NUdfOutput::kBool;
  std::vector<Variant> variants;

  /// Index of the variant serving the given conditions (last as fallback).
  size_t Select(double humidity, double temperature) const {
    for (size_t i = 0; i < variants.size(); ++i) {
      if (humidity >= variants[i].humidity_min &&
          temperature >= variants[i].temperature_min) {
        return i;
      }
    }
    return variants.size() - 1;
  }

  /// Pooled selectivity histogram across variants (for the hint rules).
  db::NUdfSelectivity MergedSelectivity() const {
    db::NUdfSelectivity merged;
    for (const auto& v : variants) {
      for (const auto& [label, count] : v.selectivity.histogram) {
        merged.histogram[label] += count;
      }
    }
    return merged;
  }
};

/// \brief Base class: owns a database instance plus a compute device and
/// exposes the collaborative-query entry point.
class CollaborativeEngine {
 public:
  explicit CollaborativeEngine(std::shared_ptr<Device> device)
      : device_(std::move(device)) {
    // Relational execution (filters, join probe, aggregation, batched nUDFs)
    // runs morsel-parallel on this device's pool; a 1-thread device (edge
    // profile) degenerates to the serial paths.
    db_.set_exec_options({device_.get(), ThreadPool::kDefaultMorselSize});
  }
  virtual ~CollaborativeEngine() = default;

  virtual const char* name() const = 0;

  db::Database& database() { return db_; }
  Device* device() { return device_.get(); }

  /// Makes `model` callable as nUDF `deployment.udf_name` in SQL queries.
  virtual Status DeployModel(const nn::Model& model,
                             const ModelDeployment& deployment) = 0;

  /// Deploys a conditional model family (Type 3 model selection). The
  /// default reflects the paper's Table III: strategies that need per-query
  /// hand-crafted coordination do not support it generically.
  virtual Status DeployModelFamily(const ModelFamilyDeployment& family) {
    return Status::NotImplemented(
        name(), " requires hand-crafted per-query coordination for "
                "conditional model selection (family '",
        family.udf_name, "')");
  }

  /// Processes one collaborative query, reporting the cost breakdown.
  virtual Result<db::Table> ExecuteCollaborative(const std::string& sql,
                                                 QueryCost* cost) = 0;

  /// Attaches the base tables of `source` into this engine's catalog by
  /// reference (zero copy) — every engine queries the same IoT dataset.
  Status AttachTablesFrom(const db::Database& source);

  /// Calibration from this engine to the ClickHouse-class vectorized engine
  /// the paper deploys on. With the batch-at-a-time vectorized execution
  /// path (src/db/exec/vector_*), the measured basis is micro_db's
  /// scan-filter and group-by throughput: ~120-150M rows/s single-threaded
  /// (up from ~10-20M rows/s for the interpreted row-at-a-time path that
  /// originally set this constant to 0.05) vs ClickHouse's published
  /// ~200-500M rows/s on comparable cores — a ratio band of 0.24-0.75 whose
  /// geometric mean rounds to 0.4. Applied to every database-executed bucket
  /// so the native-tensor vs in-database cost *ratio* matches the paper's
  /// testbed. Public so tests can pin the re-derived value.
  static constexpr double kSqlEngineCalibration = 0.4;

 protected:
  /// Splits an operator-bucket accumulator into the paper's three-way cost.
  static QueryCost SplitBuckets(const CostAccumulator& acc);

  /// Modeled cost of integrating a new compiled-UDF model into the database
  /// kernel (recompile + relink + reload; Section III-B notes the kernel
  /// "has to be recompiled"). A conservative estimate of a small C++ TU
  /// compile+link on the edge profile; scaled by the host's CPU speed.
  static constexpr double kUdfIntegrationSeconds = 0.2;

  /// Wall-time factor for work executed by the database engine.
  double RelationalFactor() const {
    return device_->profile().relational_scale * kSqlEngineCalibration;
  }
  /// Wall-time factor for plain C++ host work ((de)serialization etc.).
  double CpuFactor() const { return device_->profile().relational_scale; }

  db::Database db_;
  std::shared_ptr<Device> device_;
  std::map<std::string, ModelDeployment> deployments_;
};

/// Combined 64-bit fingerprint of a model family: every variant's model
/// fingerprint plus its routing thresholds and the output kind. Keys the
/// cross-query nUDF result cache for family UDFs; never returns 0.
Result<uint64_t> FamilyFingerprint(const ModelFamilyDeployment& family);

/// Builds the per-class selectivity histogram the paper learns during
/// offline training (Eq. 10): runs the model over `samples` random inputs
/// and counts predicted classes, formatting labels as the engine's nUDF
/// would return them.
Result<db::NUdfSelectivity> LearnSelectivityHistogram(const nn::Model& model,
                                                      NUdfOutput output,
                                                      Device* device,
                                                      int64_t samples,
                                                      uint64_t seed);

}  // namespace dl2sql::engines
