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

#include <cstdint>
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
    kSum,        ///< SUM/AVG/STDDEV over an INT64 or FLOAT64 argument
    kMinMax,     ///< MIN/MAX over an INT64 or FLOAT64 argument
  };
  Kind kind = Kind::kCountStar;
  bool want_min = false;
  bool squares = false;  ///< kSum: keep the sum of squares (STDDEV)
  DataType arg_type = DataType::kNull;  ///< kNull for COUNT(*)
};

/// Where an operand's batch row i is read: row rows[i] of `col`, or row
/// begin + i of it when `rows` is null (`begin` being the batch's first row).
struct ColumnRead {
  const Column* col = nullptr;
  const int64_t* rows = nullptr;
};

/// One aggregate's argument in a batch: `x` (x.col null for COUNT(*)), or,
/// when y.col is set, the product x * y of two NULL-free numeric columns,
/// typed as the row path types it (INT64 with wraparound when both are
/// INT64, FLOAT64 otherwise). Only SUM, AVG and STDDEV take a product.
struct ArgRead {
  ColumnRead x;
  ColumnRead y;
};

/// \brief Streaming form of the vectorized aggregation: batches of group
/// keys and aggregate arguments fold into the per-group states in arrival
/// order. The fused join→aggregate pass feeds it one batch of join pairs at
/// a time, reading bare input columns through the pairs' row ids;
/// TryVectorAggregate feeds it the input's morsels.
///
/// Groups are found by hash through a KeyHashTable, or, with dense slots
/// (UseDenseSlots), through a flat slot → group array indexed by the row's
/// position in the key bounds' box. Dense grouping holds no KeyHashTable: a
/// new group appends its key values (recovered from its slot) to the
/// aggregator's own key columns, so first-seen order is kept either way.
class BatchAggregator {
 public:
  /// Compiles `node`'s aggregates for arguments shaped like `args` and keys
  /// typed like `keys`. Returns false when an aggregate is outside the
  /// kernel inventory (NULL-bearing or kNull arguments, string MIN/MAX, a
  /// product outside SUM/AVG/STDDEV); the caller then runs the row path.
  bool Compile(const PlanNode& node, const std::vector<const Column*>& keys,
               const std::vector<ArgRead>& args);

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
  /// The caller guarantees that every key value it later consumes lies in
  /// its bounds (and so is not NULL). Call after Compile, before any row is
  /// consumed.
  int64_t UseDenseSlots(const std::vector<std::pair<int64_t, int64_t>>& bounds,
                        int64_t input_rows, ScopedMemCharge* charge);

  /// Folds batch rows [begin, end) of the given keys and arguments; batch
  /// row i is the input's row `base + i` (first-seen order is by that
  /// number). Hashed grouping reads its keys contiguously (no row ids) and
  /// takes `hashes`, when given, as their HashKeyRange key hashes; dense
  /// slots read keys through row ids too and ignore `hashes`.
  void Consume(const std::vector<ColumnRead>& keys,
               const std::vector<ArgRead>& args, int64_t begin, int64_t end,
               int64_t base, const uint64_t* hashes = nullptr);

  /// Folds `count` rows listed in `rows` (ascending row ids into the key
  /// and argument columns, `hashes` indexed by row id), `chunk` at a time.
  /// Always hashed; the arguments' own row ids are ignored.
  void ConsumeRows(const std::vector<const Column*>& keys,
                   const std::vector<ArgRead>& args, const int64_t* rows,
                   int64_t count, const uint64_t* hashes, int64_t chunk);

  /// Appends group `g` of `other` — same compiled aggregates, a key this
  /// aggregator does not hold — as this aggregator's next group.
  void TakeGroup(const BatchAggregator& other, int64_t g);

  /// Global row number of each group's first row, in group order.
  const std::vector<int64_t>& first_rows() const { return first_row_; }

  /// Approximate bytes of the grouping state (key table or dense key
  /// columns, plus accumulators; the dense slot array is not included).
  int64_t ByteSize() const;

  /// The result table: key columns then aggregates, groups in first-seen
  /// order; a global aggregate over no rows yields its one row.
  Result<Table> Finish(const PlanNode& node);

 private:
  /// Accumulates the batch's `n` rows, whose groups are in gid_buf_.
  void Accumulate(const std::vector<ArgRead>& args, int64_t begin, SelIndex n);
  void SyncStates();
  /// Dense-slot group lookup of batch rows [begin, begin + n) into gid_buf_.
  void FindDenseGroups(const std::vector<ColumnRead>& keys, int64_t begin,
                       SelIndex n, int64_t base);

  std::vector<VAggSpec> specs_;
  KeyHashTable table_;
  /// Dense slots: each key's lower bound, span and slot stride (the product
  /// of the later keys' spans), the group id per slot (kAbsent until the
  /// slot's first row), and the groups' key values in first-seen order.
  std::vector<int64_t> slot_lo_;
  std::vector<uint64_t> slot_span_;
  std::vector<uint64_t> slot_stride_;
  std::vector<KeyHashTable::KeyId> slot_gid_;
  std::vector<uint64_t> slot_buf_;
  std::vector<Column> dense_keys_;
  std::vector<int64_t> first_row_;
  std::vector<std::vector<VAggState>> per_agg_;
  std::vector<uint64_t> hash_buf_;
  std::vector<SelIndex> gid_buf_;
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
