/// \file merge.h
/// \brief Coordinator-side result merging: concatenation, k-way ordered
/// merge, and partial-aggregate re-aggregation (see DESIGN.md, "Distributed
/// serving").
///
/// All functions here are pure table-in/table-out so the merge semantics are
/// unit-testable without sockets or a running cluster. The re-aggregation
/// rules deliberately mirror the final values of lindb's one aggregator
/// (vec::BatchAggregator::FinalColumn in db/exec/vector_aggregate.cc):
/// COUNT merges by integer addition, SUM by adding non-NULL partial sums
/// (all-NULL partials stay NULL), AVG from a SUM+COUNT rewrite, MIN/MAX by
/// Value::Compare — so a merged result is indistinguishable from
/// running the same aggregate on one node whenever float addition order
/// cannot matter (integers, or a single contributing shard).
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "db/table.h"

namespace dl2sql::cluster {

/// One ORDER BY key resolved to an output column.
struct SortKeySpec {
  int column = 0;
  bool ascending = true;
};

/// Appends shard partials in shard order; column types must match `schema`.
/// `limit` < 0 keeps every row.
Result<db::Table> ConcatTables(const db::TableSchema& schema,
                               const std::vector<db::Table>& parts,
                               int64_t limit);

/// K-way merge of per-shard tables that are each already sorted by `keys`
/// (Value::Compare: NULLs first, numeric across int/float — the executor's
/// ExecSort order). Stable across shards: ties keep the lower shard index
/// first, then that shard's row order, so merging N sorted shard streams of
/// a unique key column reproduces the single-node ordering byte for byte.
Result<db::Table> MergeSortedTables(const db::TableSchema& schema,
                                    const std::vector<db::Table>& parts,
                                    const std::vector<SortKeySpec>& keys,
                                    int64_t limit);

/// How one output column of a merge-aggregate query is rebuilt from the
/// shard partial columns (partial layout: group keys first, then partials).
struct MergeOutputSpec {
  enum class Kind { kGroupKey, kCount, kSum, kAvg, kMin, kMax };
  Kind kind = Kind::kGroupKey;
  /// Column in the shard partials carrying this output's key / count / sum /
  /// min / max payload (for kAvg: the partial SUM column).
  int partial_index = 0;
  /// kAvg only: the companion COUNT(arg) column in the shard partials.
  int count_index = -1;
};

/// Re-aggregates shard partial rows into final output rows. The first
/// `num_keys` columns of every partial row are the GROUP BY keys, typed
/// alike in every part; rows with equal keys (canonical equality, numbered
/// by a grouping KeyHashTable as hash aggregation groups them) merge into
/// one output group. Groups are emitted in ascending key order
/// (Value::Compare lexicographic) — a deterministic order that is
/// independent of how rows were split across shards. With `num_keys` == 0
/// every shard contributes exactly one partial row (global aggregates always
/// produce a row) and exactly one output row results.
Result<db::Table> MergeAggregatePartials(const db::TableSchema& out_schema,
                                         const std::vector<db::Table>& parts,
                                         int num_keys,
                                         const std::vector<MergeOutputSpec>& outputs);

/// Sorts `table` by `keys` with the executor's comparator (stable,
/// Value::Compare, NULLs first) and applies `limit` (< 0 = all). Used for
/// the coordinator-side final ORDER BY of merge-aggregate results.
Result<db::Table> SortAndLimit(db::Table table,
                               const std::vector<SortKeySpec>& keys,
                               int64_t limit);

}  // namespace dl2sql::cluster
