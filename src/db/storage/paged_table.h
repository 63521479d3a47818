/// \file paged_table.h
/// \brief PagedTableData: the out-of-core backing of a Table in paged mode.
///
/// A paged table's rows live in the StorageEngine's block file as a sequence
/// of *chunks* (chunk_rows rows each, last one short). One chunk is the
/// concatenation of every column's EncodeColumnSlice output, split across
/// ceil(bytes / block_bytes) blocks, and records where each column's bytes
/// start. Reading a subset of the columns pins only the blocks covering
/// their bytes and decodes only them, so a scan that names few columns of a
/// wide table reads few of its blocks; the pin footprint of a scan window is
/// at most one chunk. The codec is lossless (codec.h slice functions), so a
/// paged table materializes back to exactly the Table it was built from —
/// the bit-identity contract of DL2SQL_STORAGE=paged rests on this.
///
/// PagedTableData is immutable after Finish(); mutation goes through
/// Table::EnsureResident() (decode everything, drop the backing). The
/// destructor returns the chunks' blocks to the engine's free list.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "db/storage/storage_engine.h"
#include "db/table.h"

namespace dl2sql::db::storage {

class PagedTableBuilder;

class PagedTableData {
 public:
  ~PagedTableData();

  PagedTableData(const PagedTableData&) = delete;
  PagedTableData& operator=(const PagedTableData&) = delete;

  int64_t num_rows() const { return num_rows_; }
  int num_columns() const { return static_cast<int>(types_.size()); }
  /// Resident-equivalent payload bytes (what Table::ByteSize() would report
  /// after materializing). Logical, not on-disk.
  int64_t logical_bytes() const { return logical_bytes_; }
  /// The same, over the columns `columns` only (empty: every column).
  int64_t logical_bytes(const std::vector<int>& columns) const;
  int64_t num_chunks() const { return static_cast<int64_t>(chunks_.size()); }
  int64_t chunk_first_row(int64_t c) const {
    return chunks_[static_cast<size_t>(c)].first_row;
  }
  int64_t chunk_rows(int64_t c) const {
    return chunks_[static_cast<size_t>(c)].rows;
  }
  /// Index of the chunk containing `row` (0 <= row < num_rows()).
  int64_t ChunkOfRow(int64_t row) const;

  StorageEngine* engine() const { return engine_.get(); }
  /// Shared handle for callers that build further paged tables (spill paths)
  /// against the same engine.
  const std::shared_ptr<StorageEngine>& shared_engine() const {
    return engine_;
  }

  /// \name Reads
  /// Each read returns the columns `columns` (backing column ids, in that
  /// order; empty: every column).
  /// @{
  /// Decodes one chunk into resident columns. Only the blocks holding the
  /// requested columns' bytes are pinned during the read, and released
  /// before returning.
  Result<std::vector<Column>> ReadChunk(
      int64_t c, const std::vector<int>& columns = {}) const;

  /// Decodes rows by global index, in the given (arbitrary) order. Chunks
  /// are decoded at most once per contiguous run, so mostly-ascending index
  /// lists (limits, delete keep-lists, sorted join sides) stay cheap.
  Result<std::vector<Column>> Gather(
      const std::vector<int64_t>& rows,
      const std::vector<int>& columns = {}) const;

  /// Decodes every chunk into full resident columns.
  Result<std::vector<Column>> Materialize(
      const std::vector<int>& columns = {}) const;
  /// @}

 private:
  friend class PagedTableBuilder;

  struct ChunkRef {
    int64_t first_row = 0;
    int64_t rows = 0;
    std::vector<int64_t> blocks;
    /// Column k's encoding is bytes [offsets[k], offsets[k + 1]) of the
    /// payload; the last entry is the payload length.
    std::vector<int64_t> offsets;
  };

  PagedTableData(std::shared_ptr<StorageEngine> engine,
                 std::vector<DataType> types)
      : engine_(std::move(engine)),
        types_(std::move(types)),
        column_bytes_(types_.size(), 0) {}

  /// `columns`, or every column id when it is empty.
  std::vector<int> ColumnIds(const std::vector<int>& columns) const;

  /// Bytes [begin, end) of a chunk's encoded payload, from the blocks
  /// covering them (pinned for the copy only).
  Result<std::string> ReadChunkBytes(const ChunkRef& chunk, int64_t begin,
                                     int64_t end) const;

  std::shared_ptr<StorageEngine> engine_;
  std::vector<DataType> types_;
  std::vector<ChunkRef> chunks_;
  int64_t num_rows_ = 0;
  int64_t logical_bytes_ = 0;
  std::vector<int64_t> column_bytes_;  ///< logical bytes per column
};

/// \brief Streaming writer: feed rows in order, get a PagedTableData.
///
/// Full chunks are encoded straight from the source columns (no row-wise
/// value boxing), so building a paged table from a resident one — or from a
/// generator appending slice-sized batches, as bench/oocore_scale.cc does —
/// never holds more than one chunk of staging plus the pool's frames.
class PagedTableBuilder {
 public:
  PagedTableBuilder(std::shared_ptr<StorageEngine> engine, TableSchema schema);

  /// Appends all rows of `t` (column types must match the schema).
  Status Append(const Table& t);

  /// Flushes the staging tail and returns the finished immutable backing.
  /// The builder must not be reused afterwards.
  Result<std::shared_ptr<PagedTableData>> Finish();

 private:
  /// Encodes rows [begin, end) of `t` as one chunk and writes its blocks.
  Status FlushChunk(const Table& t, int64_t begin, int64_t end);

  std::shared_ptr<StorageEngine> engine_;
  TableSchema schema_;
  Table staging_;
  std::shared_ptr<PagedTableData> data_;
};

}  // namespace dl2sql::db::storage
