/// \file index.h
/// \brief Hash indexes over base-table integer columns.
///
/// Section IV-A of the paper: "To speed up the join processing, we build
/// indices on columns MatrixID, OrderID, and KernelID. The processing of
/// join is performed by scanning the feature map table and probing the
/// kernel tables." A HashIndex is exactly that probe structure, built once
/// per (table, column) and reused by every hash join whose build side is an
/// unfiltered scan of the indexed table — which is precisely the shape of
/// the generated neural-operator joins (static kernel/mapping tables on the
/// build side, per-query feature tables probing).
#pragma once

#include <memory>

#include "common/result.h"
#include "db/exec/hash_table.h"
#include "db/table.h"

namespace dl2sql::db {

/// \brief Immutable hash index over one INT64 column of a table snapshot: a
/// prebuilt join table (KeyHashTable::ForJoin) the hash join probes instead
/// of building its own.
class HashIndex {
 public:
  /// Builds the index; the column must be INT64 (NULL rows are left out, as
  /// NULL keys never join).
  static Result<std::shared_ptr<HashIndex>> Build(const Table& table,
                                                  int column_index);

  const KeyHashTable& table() const { return table_; }
  int column_index() const { return column_index_; }
  int64_t indexed_rows() const { return indexed_rows_; }
  size_t num_keys() const { return static_cast<size_t>(table_.num_keys()); }

 private:
  HashIndex() = default;

  int column_index_ = -1;
  int64_t indexed_rows_ = 0;
  KeyHashTable table_;
};

}  // namespace dl2sql::db
