/// \file table.h
/// \brief Table: an in-memory columnar relation.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "db/column.h"
#include "db/types.h"

namespace dl2sql::db {

namespace storage {
class PagedTableData;
class StorageEngine;
}  // namespace storage

/// \brief Columnar table. Both base tables (catalog-owned) and intermediate
/// operator results use this representation, mirroring the
/// materialize-per-operator execution style of our engine.
///
/// A table is either *resident* (columns in memory, the default and the only
/// form in in-memory storage mode) or *paged* (rows live in a
/// storage::PagedTableData backing; columns_ is empty). A paged table
/// exposes some or all of its backing's columns, so a scan naming a few
/// columns is a zero-copy view that reads only their bytes. Paged tables
/// are immutable snapshots: row-level readers (GetRow, TakeRows, ToString)
/// transparently decode the needed chunks, while mutators either auto-heal
/// by materializing first (AppendRow, AppendTable) or require the caller to
/// EnsureResident() (column accessors DL2SQL_CHECK residency). Copying a
/// paged table shares the backing; healing a copy never affects the others.
class Table {
 public:
  Table() = default;
  explicit Table(TableSchema schema);

  /// Builds a table directly from columns (sizes must agree).
  static Result<Table> FromColumns(TableSchema schema,
                                   std::vector<Column> columns);

  /// Wraps a finished paged backing (storage::PagedTableBuilder::Finish),
  /// exposing its columns `columns` (backing column ids, one per field of
  /// `schema`; empty: every column).
  static Table FromPaged(TableSchema schema,
                         std::shared_ptr<storage::PagedTableData> paged,
                         std::vector<int> columns = {});

  /// Columns `ids` of this table, in that order, under `schema` (one field
  /// per id, of the column's type): shared copy-on-write when resident, a
  /// zero-copy view of the same backing when paged.
  Result<Table> SelectColumns(TableSchema schema,
                              const std::vector<int>& ids) const;

  const TableSchema& schema() const { return schema_; }
  int num_columns() const {
    return paged_ != nullptr ? schema_.num_fields()
                             : static_cast<int>(columns_.size());
  }
  int64_t num_rows() const {
    if (paged_ != nullptr) return PagedRows();
    return columns_.empty() ? zero_column_rows_ : columns_[0].size();
  }

  /// \name Residency
  /// @{
  bool is_paged() const { return paged_ != nullptr; }
  const std::shared_ptr<storage::PagedTableData>& paged() const {
    return paged_;
  }
  /// The backing columns a paged table exposes, in order (empty: all).
  const std::vector<int>& paged_columns() const { return paged_columns_; }

  /// Decodes the paged backing into resident columns and drops it (no-op on
  /// resident tables). Required before any direct column access or mutation.
  Status EnsureResident();

  /// Resident copy of this table; `*this` unchanged. Cheap (COW) when
  /// already resident.
  Result<Table> Materialize() const;

  /// Replaces resident columns with a paged backing built through `engine`
  /// (no-op if already paged). Results stay bit-identical: the slice codec
  /// is lossless.
  Status PageOut(const std::shared_ptr<storage::StorageEngine>& engine);

  /// Bytes held in memory right now: ByteSize() when resident, 0 for the
  /// paged form (its frames are billed to the buffer pool, not the query).
  uint64_t ResidentBytes() const { return paged_ != nullptr ? 0 : ByteSize(); }
  /// @}

  const Column& column(int i) const {
    DL2SQL_DCHECK(paged_ == nullptr) << "column access on a paged table";
    return columns_[static_cast<size_t>(i)];
  }
  Column& mutable_column(int i) {
    DL2SQL_DCHECK(paged_ == nullptr) << "column access on a paged table";
    return columns_[static_cast<size_t>(i)];
  }

  /// Column by (possibly qualified) name. Resident tables only.
  Result<const Column*> ColumnByName(const std::string& name) const;

  /// Appends a full row of values (one per column, type-checked).
  /// Paged tables auto-heal to resident first.
  Status AppendRow(const std::vector<Value>& row);

  /// Reads a full row (decodes the row's chunk when paged).
  std::vector<Value> GetRow(int64_t i) const;

  /// Appends all rows of `other` (schemas must have identical types).
  /// Either side may be paged; `*this` becomes/stays resident.
  Status AppendTable(const Table& other);

  /// New resident table with only the given rows, in order. Paged tables
  /// gather through the chunk codec (I/O failure aborts — the backing file
  /// is process-private and unlinked, so read errors are unrecoverable).
  Table TakeRows(const std::vector<int64_t>& indices) const;

  /// Renames fields (e.g. to apply an alias qualification); count must match.
  Status RenameFields(const std::vector<std::string>& names);

  /// Logical payload bytes: resident heap bytes, or the resident-equivalent
  /// size of the paged backing. Mode-independent, so catalog accounting and
  /// system.tables report the same numbers either way.
  uint64_t ByteSize() const;

  /// Pretty-prints up to `max_rows` rows (for examples and debugging).
  std::string ToString(int64_t max_rows = 20) const;

  /// Used by zero-column results (e.g. COUNT-only aggregates handle columns,
  /// but DDL statements return row-count-only tables).
  void SetZeroColumnRows(int64_t n) { zero_column_rows_ = n; }

 private:
  int64_t PagedRows() const;

  TableSchema schema_;
  std::vector<Column> columns_;
  int64_t zero_column_rows_ = 0;
  std::shared_ptr<storage::PagedTableData> paged_;
  std::vector<int> paged_columns_;
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace dl2sql::db
