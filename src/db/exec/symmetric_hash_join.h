/// \file symmetric_hash_join.h
/// \brief Symmetric hash join with bucket-based LRU buffering (hint rule 3).
///
/// Section IV-B: when an nUDF appears in a join condition
/// (T0.nUDF(x) = T1.y), the paper joins the streams symmetrically — hash
/// tables are kept for nUDF(x) and y, each arriving tuple probes the other
/// side's bucket, and the buffer applies a *bucket*-granularity LRU policy.
///
/// This implementation preserves exact join semantics under eviction: every
/// tuple carries an arrival stamp and (if evicted) an eviction stamp; a pair
/// (l, r) is emitted online when the later tuple arrives while the earlier
/// one is still resident, and a cleanup phase emits exactly the pairs whose
/// earlier tuple was evicted before the later one arrived. Keys are numbered
/// by a grouping KeyHashTable per side, and the protocol runs over key ids.
#pragma once

#include <cstdint>
#include <vector>

#include "common/mem_tracker.h"
#include "db/eval.h"
#include "db/expr.h"
#include "db/table.h"

namespace dl2sql::db {

struct SymmetricHashJoinOptions {
  /// Rows that arrive per step from each side before the other side's turn.
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

/// Appends to `lrows`/`rrows` (pair i is (lrows[i], rrows[i])) every pair of
/// a `left` row and a `right` row with equal keys left_key(row) and
/// right_key(row): online pairs in arrival order, then the cleanup's. Keys
/// compare canonically, as the hash join's do: INT64 3 joins FLOAT64 3.0,
/// and a NULL key joins nothing. Key expressions are evaluated via `ctx` (so
/// nUDF time lands in the inference bucket); key tables and per-row arrays
/// are charged to `scratch`. Stops after the tuple that brings `lrows` to
/// `limit` pairs.
Status SymmetricHashJoinPairs(const Table& left, const Table& right,
                              const Expr& left_key, const Expr& right_key,
                              EvalContext* ctx,
                              const SymmetricHashJoinOptions& options,
                              ScopedMemCharge* scratch, size_t limit,
                              std::vector<int64_t>* lrows,
                              std::vector<int64_t>* rrows,
                              SymmetricHashJoinStats* stats = nullptr);

}  // namespace dl2sql::db
