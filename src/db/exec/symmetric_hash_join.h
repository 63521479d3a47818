/// \file symmetric_hash_join.h
/// \brief Symmetric hash join with bucket-based LRU buffering (hint rule 3).
///
/// Section IV-B: when an nUDF appears in a join condition
/// (T0.nUDF(x) = T1.y), the paper joins the streams symmetrically — hash
/// tables are kept for nUDF(x) and y, each arriving tuple probes the other
/// side's bucket, the buffer applies a *bucket*-granularity LRU policy, and
/// nUDF evaluation happens in batches.
///
/// This implementation preserves exact join semantics under eviction: every
/// tuple carries an arrival stamp and (if evicted) an eviction stamp; a pair
/// (l, r) is emitted online when the later tuple arrives while the earlier
/// one is still resident, and a cleanup phase emits exactly the pairs whose
/// earlier tuple was evicted before the later one arrived.
#pragma once

#include <cstdint>
#include <vector>

#include "db/eval.h"
#include "db/expr.h"
#include "db/table.h"

namespace dl2sql::db {

struct SymmetricHashJoinOptions {
  /// Rows consumed per step from each side (the nUDF batch size).
  int64_t batch_size = 64;
  /// Max resident tuples across both hash tables; <=0 means unbounded.
  int64_t memory_budget_tuples = 0;
};

/// Statistics for tests/benchmarks.
struct SymmetricHashJoinStats {
  int64_t evicted_buckets = 0;
  int64_t evicted_tuples = 0;
  int64_t cleanup_pairs = 0;
  int64_t online_pairs = 0;
};

/// Joins `left` and `right` on equal AppendKeyPart encodings of
/// left_key(row) and right_key(row); key expressions are evaluated per batch via
/// `ctx` (so nUDF time lands in the inference bucket). Returns matching
/// (left_row, right_row) index pairs in unspecified order.
Result<std::vector<std::pair<int64_t, int64_t>>> SymmetricHashJoinPairs(
    const Table& left, const Table& right, const Expr& left_key,
    const Expr& right_key, EvalContext* ctx,
    const SymmetricHashJoinOptions& options,
    SymmetricHashJoinStats* stats = nullptr);

}  // namespace dl2sql::db
