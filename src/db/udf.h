/// \file udf.h
/// \brief Scalar UDF registry, including neural UDFs (nUDFs).
///
/// An nUDF is the unit the paper's collaborative queries call
/// (nUDF_detect(V.keyframe) = TRUE, ...). Which code implements the nUDF body
/// is exactly what distinguishes the three strategies:
///  - independent processing: the body ships the blob across a simulated
///    DL-system boundary (serialize, infer, deserialize);
///  - loose integration: the body runs a model deserialized from a compiled
///    blob inside the kernel;
///  - DL2SQL: the predicate is rewritten into SQL, so the body is never
///    called on the hot path (kept for fallback/verification).
///
/// The registry also stores per-class selectivity histograms (Section IV-B,
/// Eq. 10) that the optimizer's hint rules consume.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/column.h"
#include "db/value.h"

namespace dl2sql::db {

/// Body of a scalar function: values in, value out.
using ScalarFn = std::function<Result<Value>(const std::vector<Value>&)>;

/// Optional typed column body of a numeric builtin: one call over whole
/// argument columns, each INT64 or FLOAT64, NULL-free and of equal length.
/// It returns exactly the column the row body's results would fill (same
/// type, values and first error); the evaluator runs it when the arguments
/// qualify and the row body otherwise.
using ColumnFn =
    std::function<Result<Column>(const std::vector<const Column*>&)>;

/// Optional vectorized body: one call for a whole column of rows (outer
/// vector = rows, inner = arguments). The evaluator prefers this when
/// registered — it is how batched nUDF inference enters query execution.
using BatchFn =
    std::function<Result<std::vector<Value>>(const std::vector<std::vector<Value>>&)>;

/// \brief Offline-learned class distribution of an nUDF (Eq. 9/10).
/// Pr(c_i) = H(c_i) / sum_j H(c_j); used as predicate selectivity when the
/// query tests `nUDF(x) = c_i`.
struct NUdfSelectivity {
  /// Histogram counts per class label (string form of the nUDF output).
  std::map<std::string, int64_t> histogram;

  /// Pr of a class label; uniform fallback when the label is unseen.
  double Probability(const std::string& label) const;

  /// Total training samples behind the histogram.
  int64_t TotalCount() const;
};

/// \brief Metadata attached to neural UDFs.
struct NUdfInfo {
  std::string model_name;
  NUdfSelectivity selectivity;
  /// Estimated seconds for a single inference call, used by the optimizer to
  /// weigh scan-time vs. delayed nUDF evaluation (hint rule 1).
  double per_call_cost_sec = 0.0;
  int64_t num_parameters = 0;
  /// Content hash of the deployed model (nn::ModelFingerprint). Keys the
  /// cross-query nUDF result cache together with the serialized argument row.
  /// 0 (the default) marks the body as uncacheable — stateful bodies and
  /// hand-registered test functions stay exactly as before.
  uint64_t fingerprint = 0;
};

/// \brief A registered scalar function.
struct ScalarUdf {
  std::string name;
  int arity = -1;  ///< -1 = variadic
  DataType return_type = DataType::kNull;
  ScalarFn fn;
  /// When set, the evaluator calls this once per column instead of fn once
  /// per row (batched nUDF inference).
  BatchFn batch_fn;
  /// Typed column body (numeric builtins); a function registered without
  /// one, re-registrations of a builtin's name included, runs per row.
  ColumnFn column_fn;
  bool is_neural = false;
  NUdfInfo neural;  ///< meaningful only when is_neural
  /// True when `batch_fn` may be invoked concurrently from several pool
  /// workers (pure compute, no shared mutable state). Bodies that re-enter
  /// the Database (e.g. DL2SQL's SQL-rewrite fallback) must leave this false;
  /// the evaluator then still batches per morsel but runs morsels serially.
  bool parallel_safe = false;
};

/// \brief Case-insensitive registry of scalar functions. Built-in math/util
/// functions are pre-registered; engines add nUDFs per model.
class UdfRegistry {
 public:
  UdfRegistry();

  /// Registers (or replaces) a function.
  void Register(ScalarUdf udf);

  /// Registers a neural UDF. `batch_fn` is optional (vectorized body);
  /// `arity` is 1 for plain nUDFs, 3 for conditional model families
  /// (keyframe, humidity, temperature). `parallel_safe` marks `batch_fn` as
  /// callable concurrently from pool workers.
  void RegisterNeural(const std::string& name, DataType return_type,
                      ScalarFn fn, NUdfInfo info, BatchFn batch_fn = nullptr,
                      int arity = 1, bool parallel_safe = false);

  /// Looks up by name (case-insensitive).
  Result<const ScalarUdf*> Find(const std::string& name) const;

  bool Contains(const std::string& name) const { return Find(name).ok(); }

  /// True if `name` is registered and neural.
  bool IsNeural(const std::string& name) const;

  std::vector<std::string> Names() const;

  /// Monotonic counter bumped by every Register (including replacements).
  /// Plan caches fold it into their keys so plans optimized against an older
  /// registry state are never served.
  uint64_t version() const { return version_; }

  /// Invoked when RegisterNeural replaces an existing neural UDF whose model
  /// fingerprint differs (model reload/retrain). The Database installs a hook
  /// that drops memoized nUDF results.
  using NeuralReplacedHook = std::function<void(const std::string& name)>;
  void set_neural_replaced_hook(NeuralReplacedHook hook) {
    neural_replaced_hook_ = std::move(hook);
  }

 private:
  void RegisterBuiltins();
  std::map<std::string, ScalarUdf> fns_;  // keyed by lower-cased name
  uint64_t version_ = 0;
  NeuralReplacedHook neural_replaced_hook_;
};

}  // namespace dl2sql::db
