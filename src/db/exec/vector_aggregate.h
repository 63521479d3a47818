/// \file vector_aggregate.h
/// \brief Batch-at-a-time hash aggregation over typed accumulator arrays.
///
/// Group assignment happens morsel-at-a-time (batched canonical key hashing,
/// then one KeyHashTable lookup per row) producing a gid-per-row buffer;
/// each aggregate then updates its contiguous per-group state array with one
/// tight typed loop per batch. Every group accumulates its rows in input row
/// order, serially and in parallel alike: the parallel mode partitions rows
/// by key hash (each group lives in one partition, which keeps row order),
/// so float sums are bit-identical to the row path and across thread counts.
#pragma once

#include <utility>
#include <vector>

#include "db/eval.h"
#include "db/exec/hash_table.h"
#include "db/exec/vector_kernels.h"
#include "db/plan.h"
#include "db/table.h"

namespace dl2sql::db::vec {

/// One aggregate compiled to a typed accumulation kernel.
struct VAggSpec {
  enum class Kind : uint8_t {
    kCountStar,
    kCountAll,   ///< COUNT over a no-null non-bool column: every row counts
    kCountBool,  ///< COUNT over a no-null bool column: TRUE rows count
    kSumInt,     ///< SUM/AVG/STDDEV int64 source
    kSumFloat,
    kMinMaxInt,
    kMinMaxFloat,
  };
  Kind kind = Kind::kCountStar;
  bool want_min = false;
  DataType arg_type = DataType::kNull;  ///< kNull for COUNT(*)
};

/// \brief Streaming form of the vectorized aggregation: batches of evaluated
/// group keys and aggregate arguments fold into the per-group states in
/// arrival order. The fused join→aggregate pass feeds it one batch of join
/// pairs at a time; TryVectorAggregate feeds it the input's morsels.
///
/// With dense slots (UseDenseSlots), Consume finds a row's group through a
/// flat array indexed by the row's position in the key bounds' box; only a
/// slot's first row is hashed and inserted into the KeyHashTable, which
/// still holds every key in first-seen order for Finish.
class BatchAggregator {
 public:
  /// Compiles `node`'s aggregates for arguments shaped like `args` (nullptr
  /// for COUNT(*)) and keys typed like `keys`. Returns false when an
  /// aggregate is outside the kernel inventory (NULL-bearing or kNull
  /// arguments, string MIN/MAX); the caller then runs the row path.
  bool Compile(const PlanNode& node, const std::vector<const Column*>& keys,
               const std::vector<const Column*>& args);

  /// Dense slots allowed per input row. The slot array (4 bytes a slot) is
  /// allocated and cleared once per aggregation, so two slots per row cap
  /// that work and memory at 8 bytes per input row, the size of one INT64
  /// key column of the input: a sparse key box can never cost more than
  /// reading the input it groups.
  static constexpr int64_t kDenseSlotsPerInputRow = 2;

  /// Switches Consume to dense slots for INT64 keys whose values lie in the
  /// inclusive `bounds` (one pair per key), when the bounds' box holds at
  /// most kDenseSlotsPerInputRow slots per row of `input_rows` and `charge`
  /// admits the slot array's bytes. Returns the slot count, or 0 when the
  /// box is over budget or the charge is refused (grouping stays hashed).
  /// Call after Compile, before any row is consumed.
  int64_t UseDenseSlots(const std::vector<std::pair<int64_t, int64_t>>& bounds,
                        int64_t input_rows, ScopedMemCharge* charge);

  /// Folds rows [begin, end) of the given key and argument columns; row i
  /// is the input's row `base + i` (first-seen order is by that number).
  /// `hashes`, when given, holds the rows' HashKeyRange key hashes; dense
  /// slots ignore it and hash only each slot's first row.
  void Consume(const std::vector<const Column*>& keys,
               const std::vector<const Column*>& args, int64_t begin,
               int64_t end, int64_t base, const uint64_t* hashes = nullptr);

  /// Folds `count` rows listed in `rows` (ascending row ids into the key
  /// and argument columns, `hashes` indexed by row id), `chunk` at a time.
  /// Always hashed.
  void ConsumeRows(const std::vector<const Column*>& keys,
                   const std::vector<const Column*>& args, const int64_t* rows,
                   int64_t count, const uint64_t* hashes, int64_t chunk);

  /// Appends group `g` of `other` — same compiled aggregates, a key this
  /// aggregator does not hold — as this aggregator's next group.
  void TakeGroup(const BatchAggregator& other, int64_t g);

  /// Global row number of each group's first row, in group order.
  const std::vector<int64_t>& first_rows() const { return first_row_; }

  /// Approximate bytes of the grouping state (key table plus accumulators;
  /// the dense slot array is not included).
  int64_t ByteSize() const;

  /// The result table: key columns then aggregates, groups in first-seen
  /// order; a global aggregate over no rows yields its one row.
  Result<Table> Finish(const PlanNode& node);

 private:
  /// Accumulates `n` rows whose groups are in gid_buf_; batch row i is row
  /// rows[i] of `args` (rows == nullptr: row begin + i).
  void Accumulate(const std::vector<const Column*>& args, int64_t begin,
                  const int64_t* rows, SelIndex n);
  void SyncStates();
  /// Dense-slot group lookup of batch rows [begin, end) into gid_buf_.
  void FindDenseGroups(const std::vector<const Column*>& keys, int64_t begin,
                       int64_t end, int64_t base);

  std::vector<VAggSpec> specs_;
  KeyHashTable table_;
  /// Dense slots: each key's lower bound and slot stride (the product of
  /// the later keys' spans), and the group id per slot (kAbsent until the
  /// slot's first row).
  std::vector<int64_t> slot_lo_;
  std::vector<uint64_t> slot_span_;
  std::vector<uint64_t> slot_stride_;
  std::vector<KeyHashTable::KeyId> slot_gid_;
  std::vector<uint64_t> slot_buf_;
  std::vector<int64_t> first_row_;
  std::vector<std::vector<VAggState>> per_agg_;
  std::vector<uint64_t> hash_buf_;
  std::vector<SelIndex> gid_buf_;
  /// Gather buffers for row-listed batches.
  std::vector<int64_t> int_buf_;
  std::vector<double> float_buf_;
  std::vector<uint8_t> bool_buf_;
};

/// Attempts the vectorized aggregation for `node` over pre-evaluated group
/// keys and aggregate arguments (`n` input rows). Returns true and fills
/// `out` with the complete result table — identical to the row path's
/// emission — when every aggregate compiled to a typed kernel; returns false
/// (out untouched) when any aggregate or key shape is unsupported
/// (NULL-bearing argument columns, string MIN/MAX, kNull-typed arguments),
/// in which case the caller must run the row path.
Result<bool> TryVectorAggregate(const PlanNode& node,
                                const std::vector<ColumnHandle>& key_cols,
                                const std::vector<ColumnHandle>& arg_cols,
                                int64_t n, EvalContext* ctx, Table* out);

}  // namespace dl2sql::db::vec
