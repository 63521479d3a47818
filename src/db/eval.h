/// \file eval.h
/// \brief Vectorized expression evaluation over columnar tables.
#pragma once

#include <functional>
#include <memory>

#include "common/timer.h"
#include "db/expr.h"
#include "db/table.h"
#include "db/udf.h"

namespace dl2sql {
class ShardedLruCache;
class ThreadPool;
}

namespace dl2sql::db {

/// \brief Shared evaluation state threaded through expression evaluation.
struct EvalContext {
  const UdfRegistry* udfs = nullptr;
  /// Executes a scalar subquery (wired to the Database executor); must return
  /// a single value.
  std::function<Result<Value>(const SelectStmt&)> subquery_exec;
  /// When set, neural-UDF wall time is charged to the "inference" bucket so
  /// operators can report relational vs. inference cost separately.
  CostAccumulator* costs = nullptr;
  /// Accumulated nUDF seconds (all calls through this context).
  double inference_seconds = 0.0;
  /// Number of nUDF invocations (rows actually sent to a model); the hint
  /// benchmarks assert pruning through this counter.
  int64_t neural_calls = 0;
  /// Of those, rows answered from the cross-query nUDF result cache (a
  /// subset of neural_calls; per-query introspection, system.queries).
  int64_t nudf_cache_hits = 0;
  /// Worker pool for morsel-parallel kernels; nullptr (or a 1-thread pool)
  /// degenerates every loop to the serial path. Not owned.
  ThreadPool* pool = nullptr;
  /// Rows per morsel for parallel loops (ThreadPool::kDefaultMorselSize).
  int64_t morsel_size = 4096;
  /// Cross-query nUDF result cache (owned by the Database). Only consulted
  /// for neural UDFs whose NUdfInfo carries a non-zero model fingerprint;
  /// nullptr disables memoization entirely. Cache hits still count toward
  /// neural_calls and nudf.invocations — those tally rows *answered* by a
  /// model, whether freshly computed or memoized — so existing accounting is
  /// unchanged; only compute time and nudf.batches shrink.
  ShardedLruCache* nudf_cache = nullptr;
  /// When true, operators attempt the batch-at-a-time vectorized kernels
  /// (db/exec/vector_*.h) before the row path; kernels that cannot compile
  /// the expression/key shape fall back silently with identical results.
  /// Off (DL2SQL_VECTOR=OFF) forces the row path everywhere.
  bool vectorized = false;
  /// \name Vectorized-kernel accounting (folded by DrainEvalContext)
  /// Batches processed, rows entering kernels, and rows surviving selection;
  /// `vec_rows_selected / vec_rows_in` is the average selection-vector
  /// density ExplainAnalyze reports per operator.
  /// @{
  int64_t vec_batches = 0;
  int64_t vec_rows_in = 0;
  int64_t vec_rows_selected = 0;
  /// @}
};

/// Shared, possibly non-owning column handle (column refs alias the input
/// table's columns to avoid deep copies).
using ColumnHandle = std::shared_ptr<const Column>;

/// Evaluates `e` over every row of `input`, producing a column of
/// input.num_rows() values. Aggregate calls must have been planned away.
Result<ColumnHandle> EvalExpr(const Expr& e, const Table& input,
                              EvalContext* ctx);

/// Evaluates a row-independent expression (literals, subqueries, functions of
/// those) to a single value.
Result<Value> EvalScalar(const Expr& e, EvalContext* ctx);

/// Applies a binary operator to two scalars with SQL NULL propagation.
Result<Value> EvalValueBinary(BinaryOp op, const Value& l, const Value& r);

/// Static result type of an expression against a schema.
Result<DataType> InferExprType(const Expr& e, const TableSchema& schema,
                               const UdfRegistry* udfs);

/// Evaluates a predicate and returns the passing row indices.
Result<std::vector<int64_t>> FilterRows(const Expr& predicate,
                                        const Table& input, EvalContext* ctx);

}  // namespace dl2sql::db
