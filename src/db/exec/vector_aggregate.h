/// \file vector_aggregate.h
/// \brief Hash aggregation: lindb's one GROUP BY implementation.
///
/// BatchAggregator folds batches of group keys and aggregate arguments into
/// per-group states, serially, on the calling thread. Two callers feed it:
/// the aggregate operator (its input's morsels, window by window, and after
/// an overflow each spilled partition's chunks) and the fused
/// join→aggregate pass (batches of join pairs). Group assignment happens a
/// batch at a time (batched canonical key hashing, then one KeyHashTable
/// lookup per row, or dense slots) and produces a gid-per-row buffer; each
/// aggregate then folds the batch into its own state array.
///
/// An aggregate keeps one of two kinds of state. A typed VAggState is
/// updated by one tight kernel loop per batch; it needs a vectorized
/// statement and a NULL-free argument the kernels take. A GenericAggState
/// folds the argument's values one row at a time, skipping NULLs, over any
/// type. Both kinds fold every group's rows in input row order with the same
/// float operations and share one set of final-value formulas, so results
/// are bit-identical whichever kind, caller or thread count runs them, and
/// a typed state converts to a generic one without loss (AdmitNulls).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "db/exec/hash_table.h"
#include "db/exec/vector_kernels.h"
#include "db/plan.h"
#include "db/table.h"

namespace dl2sql::db::vec {

/// One aggregate compiled to a typed kernel or to the generic state.
struct VAggSpec {
  enum class Kind : uint8_t {
    kCountStar,
    kCountAll,   ///< COUNT over a no-null non-bool column: every row counts
    kCountBool,  ///< COUNT over a no-null bool column: TRUE rows count
    kSum,        ///< SUM/AVG/STDDEV over an INT64 or FLOAT64 argument
    kMinMax,     ///< MIN/MAX over an INT64 or FLOAT64 argument
    kGeneric,    ///< any function and argument: a GenericAggState per group
  };
  AggFunc func = AggFunc::kCountStar;
  Kind kind = Kind::kCountStar;
  bool want_min = false;
  bool squares = false;  ///< kSum: keep the sum of squares (STDDEV)
  DataType arg_type = DataType::kNull;  ///< kNull for COUNT(*)
};

/// A generic aggregate's running state over one group.
struct GenericAggState {
  int64_t count = 0;
  double sum = 0;
  double sumsq = 0;
  Value extremum;  ///< MIN or MAX so far; NULL until a non-NULL row
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

/// What Compile needs to know of one aggregate's argument over the whole
/// input: x's type (kNull for COUNT(*)) and whether any of its rows is
/// NULL, and, for a product x * y, the same of y.
struct ArgShape {
  DataType type = DataType::kNull;
  bool nulls = false;
  DataType factor_type = DataType::kNull;  ///< kNull: not a product
  bool factor_nulls = false;
};

/// The shape of an argument whose columns hold the whole input.
ArgShape ShapeOf(const ArgRead& arg);

/// \brief Folds batches of group keys and aggregate arguments into
/// per-group states in arrival order; see the file comment.
///
/// Groups are found by hash through a KeyHashTable, or, with dense slots
/// (UseDenseSlots), through a flat slot → group array indexed by the row's
/// position in the key bounds' box. Dense grouping holds no KeyHashTable: a
/// new group appends its key values (recovered from its slot) to the
/// aggregator's own key columns, so first-seen order is kept either way.
class BatchAggregator {
 public:
  /// Compiles `node`'s aggregates for keys of `key_types` and arguments
  /// shaped like `args`. An aggregate takes a typed kernel when `vectorized`
  /// and its argument is NULL-free and fits one (COUNT over any type;
  /// SUM/AVG/STDDEV and MIN/MAX over INT64 or FLOAT64), and the generic
  /// state otherwise. A product argument always takes a sum kernel: Compile
  /// returns false when the kernels cannot take it (a NULL-bearing or
  /// non-numeric factor, a function other than SUM/AVG/STDDEV, or
  /// `vectorized` off), and only then.
  bool Compile(const PlanNode& node, const std::vector<DataType>& key_types,
               const std::vector<ArgShape>& args, bool vectorized);

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

  /// Folds rows [begin, end) of the given keys and arguments. Row r is
  /// numbered ids[r] when `ids` is given, else base + r; a group's number is
  /// its first row's, and groups are emitted in first-seen order. Hashed
  /// grouping reads its keys contiguously (no row ids) and takes `hashes`,
  /// when given, as their HashKeyRange key hashes; dense slots read keys
  /// through row ids too and ignore `hashes`. Fails only when a generic
  /// SUM/AVG/STDDEV meets a non-numeric value.
  Status Consume(const std::vector<ColumnRead>& keys,
                 const std::vector<ArgRead>& args, int64_t begin, int64_t end,
                 int64_t base, const uint64_t* hashes = nullptr,
                 const int64_t* ids = nullptr);

  /// Consume's lookup without insertion, for an aggregator that may not
  /// grow: folds the rows of [begin, end) whose key already has a group and
  /// appends the others' row indices to `absent`, in row order. Keys and
  /// arguments are read contiguously (no row ids), through hashed grouping;
  /// a global aggregate's one group must exist (a consumed row made it).
  Status ConsumeResident(const std::vector<ColumnRead>& keys,
                         const std::vector<ArgRead>& args, int64_t begin,
                         int64_t end, std::vector<int64_t>* absent);

  /// Converts to the generic state every typed aggregate whose argument
  /// `args[a]` now holds a NULL, as Compile would have chosen had the
  /// first batch held it: count, sum and sum of squares carry over, and a
  /// typed extremum becomes its Value. Lossless, since both kinds fold the
  /// same float operations and share the final-value formulas.
  void AdmitNulls(const std::vector<ArgShape>& args);

  /// Number of each group's first row, in group order.
  const std::vector<int64_t>& first_rows() const { return first_row_; }

  /// Approximate bytes of the grouping state (key table or dense key
  /// columns, plus the states; the dense slot array is not included).
  int64_t ByteSize() const;

  /// The result table: key columns then aggregates, groups in first-seen
  /// order; a global aggregate over no rows yields its one row.
  Result<Table> Finish(const PlanNode& node);

 private:
  /// Folds the batch's `n` rows, whose groups are in gid_buf_.
  Status Accumulate(const std::vector<ArgRead>& args, int64_t begin,
                    SelIndex n);
  void SyncStates();
  /// Dense-slot group lookup of rows [begin, begin + n) into gid_buf_.
  void FindDenseGroups(const std::vector<ColumnRead>& keys, int64_t begin,
                       SelIndex n, int64_t base, const int64_t* ids);
  /// Aggregate `a`'s output column: every final value and output type.
  Result<Column> FinalColumn(size_t a) const;

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
  /// Per aggregate, one state per group: typed aggregates fill typed_[a],
  /// generic ones generic_[a]; the other array stays empty.
  std::vector<std::vector<VAggState>> typed_;
  std::vector<std::vector<GenericAggState>> generic_;
  std::vector<uint64_t> hash_buf_;
  std::vector<SelIndex> gid_buf_;
  std::vector<int64_t> sel_buf_;
};

}  // namespace dl2sql::db::vec
