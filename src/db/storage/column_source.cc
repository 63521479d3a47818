#include "db/storage/column_source.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "db/storage/paged_table.h"

namespace dl2sql::db::storage {

namespace {

class ResidentSource : public ColumnSource {
 public:
  ResidentSource(TablePtr table, int64_t window_rows)
      : table_(std::move(table)),
        window_rows_(window_rows > 0 ? window_rows : table_->num_rows()) {
    if (window_rows_ <= 0) window_rows_ = 1;  // empty table: one empty window
  }

  int64_t num_rows() const override { return table_->num_rows(); }
  int64_t num_windows() const override {
    return std::max<int64_t>(
        (table_->num_rows() + window_rows_ - 1) / window_rows_, 1);
  }
  int64_t window_start(int64_t w) const override { return w * window_rows_; }
  int64_t window_rows(int64_t w) const override {
    return std::min(window_rows_, table_->num_rows() - window_start(w));
  }
  Result<Table> ReadWindow(int64_t w) const override {
    if (num_windows() == 1 && window_start(0) == 0) {
      return *table_;  // COW column share, no copy
    }
    std::vector<int64_t> idx(static_cast<size_t>(window_rows(w)));
    std::iota(idx.begin(), idx.end(), window_start(w));
    return table_->TakeRows(idx);
  }

 private:
  TablePtr table_;
  int64_t window_rows_;
};

class PagedSource : public ColumnSource {
 public:
  explicit PagedSource(TablePtr table) : table_(std::move(table)) {}

  int64_t num_rows() const override { return table_->num_rows(); }
  int64_t num_windows() const override {
    return std::max<int64_t>(table_->paged()->num_chunks(), 1);
  }
  int64_t window_start(int64_t w) const override {
    const auto& paged = *table_->paged();
    return paged.num_chunks() == 0 ? 0 : paged.chunk_first_row(w);
  }
  int64_t window_rows(int64_t w) const override {
    const auto& paged = *table_->paged();
    return paged.num_chunks() == 0 ? 0 : paged.chunk_rows(w);
  }
  Result<Table> ReadWindow(int64_t w) const override {
    const auto& paged = *table_->paged();
    if (paged.num_chunks() == 0) return Table(table_->schema());
    DL2SQL_ASSIGN_OR_RETURN(std::vector<Column> cols,
                            paged.ReadChunk(w, table_->paged_columns()));
    return Table::FromColumns(table_->schema(), std::move(cols));
  }

 private:
  TablePtr table_;
};

}  // namespace

std::unique_ptr<ColumnSource> MakeColumnSource(const TablePtr& table,
                                               int64_t window_rows_hint) {
  if (table->is_paged()) {
    return std::make_unique<PagedSource>(table);
  }
  return std::make_unique<ResidentSource>(table, window_rows_hint);
}

}  // namespace dl2sql::db::storage
