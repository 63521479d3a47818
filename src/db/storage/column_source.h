/// \file column_source.h
/// \brief ColumnSource: windowed iteration over a table's columns.
///
/// The out-of-core executor paths (windowed aggregation, spill partitioning,
/// scan streaming) must not assume a table's columns are resident. A
/// ColumnSource presents any table as a sequence of row windows, each of
/// which materializes to a small resident Table on demand:
///   - resident tables yield fixed-size slice windows (or one whole-table
///     window when the size hint is 0) — cheap columnar Takes;
///   - paged tables yield one window per storage chunk, holding only the
///     columns the table exposes, so a full pass pins at most one chunk's
///     blocks at a time, and of those only the ones holding its columns.
/// Iterating windows in order therefore bounds executor residency to
/// max(window bytes) regardless of table size.
#pragma once

#include <cstdint>
#include <memory>

#include "common/result.h"
#include "db/table.h"

namespace dl2sql::db::storage {

class ColumnSource {
 public:
  virtual ~ColumnSource() = default;

  virtual int64_t num_rows() const = 0;
  virtual int64_t num_windows() const = 0;
  /// Global row index of the first row of window `w`.
  virtual int64_t window_start(int64_t w) const = 0;
  virtual int64_t window_rows(int64_t w) const = 0;
  /// Materializes window `w` as a resident Table with the source's schema.
  virtual Result<Table> ReadWindow(int64_t w) const = 0;
};

/// Builds the appropriate source for `table`. `window_rows_hint` shapes
/// resident-table windows (0 = one window spanning the whole table); paged
/// tables always window per chunk.
std::unique_ptr<ColumnSource> MakeColumnSource(const TablePtr& table,
                                               int64_t window_rows_hint);

}  // namespace dl2sql::db::storage
