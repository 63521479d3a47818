#include "db/storage/paged_table.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/logging.h"
#include "db/codec.h"

namespace dl2sql::db::storage {

namespace {

// Resident bytes of rows [begin, end) of `col`, mirroring Column::ByteSize.
int64_t SliceByteSize(const Column& col, int64_t begin, int64_t end) {
  const int64_t n = end - begin;
  int64_t bytes = col.validity().empty() ? 0 : n;
  switch (col.type()) {
    case DataType::kBool:
      bytes += n;
      break;
    case DataType::kInt64:
      bytes += n * static_cast<int64_t>(sizeof(int64_t));
      break;
    case DataType::kFloat64:
      bytes += n * static_cast<int64_t>(sizeof(double));
      break;
    case DataType::kString:
    case DataType::kBlob:
      for (int64_t i = begin; i < end; ++i) {
        bytes += static_cast<int64_t>(
            col.strings()[static_cast<size_t>(i)].size() + sizeof(uint32_t));
      }
      break;
    case DataType::kNull:
      break;
  }
  return bytes;
}

}  // namespace

PagedTableData::~PagedTableData() {
  std::vector<int64_t> all;
  for (const ChunkRef& c : chunks_) {
    all.insert(all.end(), c.blocks.begin(), c.blocks.end());
  }
  if (!all.empty()) engine_->FreeBlocks(all);
}

int64_t PagedTableData::ChunkOfRow(int64_t row) const {
  DL2SQL_CHECK(row >= 0 && row < num_rows_) << "row " << row << " out of "
                                            << num_rows_;
  // Chunks have uniform size except the last, so direct division works.
  const int64_t per = chunks_.front().rows;
  const int64_t c = std::min<int64_t>(row / per, num_chunks() - 1);
  DL2SQL_CHECK(row >= chunks_[static_cast<size_t>(c)].first_row);
  return c;
}

std::vector<int> PagedTableData::ColumnIds(
    const std::vector<int>& columns) const {
  if (!columns.empty()) return columns;
  std::vector<int> all(types_.size());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

int64_t PagedTableData::logical_bytes(const std::vector<int>& columns) const {
  if (columns.empty()) return logical_bytes_;
  int64_t bytes = 0;
  for (const int c : columns) bytes += column_bytes_[static_cast<size_t>(c)];
  return bytes;
}

Result<std::string> PagedTableData::ReadChunkBytes(const ChunkRef& chunk,
                                                   int64_t begin,
                                                   int64_t end) const {
  const int64_t bb =
      static_cast<int64_t>(engine_->block_file().block_bytes());
  std::string buf;
  buf.reserve(static_cast<size_t>(end - begin));
  for (int64_t pos = begin; pos < end;) {
    const int64_t b = pos / bb;
    DL2SQL_ASSIGN_OR_RETURN(
        PinnedBlock pin,
        engine_->pool().Pin(chunk.blocks[static_cast<size_t>(b)]));
    const int64_t off = pos - b * bb;
    const int64_t take =
        std::min(end - pos, static_cast<int64_t>(pin.size()) - off);
    if (take <= 0) {
      return Status::InternalError("chunk block ", b, " holds ", pin.size(),
                                   " bytes, expected more than ", off);
    }
    buf.append(pin.data() + off, static_cast<size_t>(take));
    pos += take;
  }
  return buf;
}

Result<std::vector<Column>> PagedTableData::ReadChunk(
    int64_t c, const std::vector<int>& columns) const {
  const ChunkRef& chunk = chunks_[static_cast<size_t>(c)];
  const std::vector<int> ids = ColumnIds(columns);
  for (const int id : ids) {
    if (id < 0 || id >= num_columns()) {
      return Status::InvalidArgument("column ", id, " of a ", num_columns(),
                                     "-column paged table");
    }
  }
  // Columns are laid out in id order: requested ids in ascending order split
  // into runs of adjacent columns, and each run's bytes are read at once.
  std::vector<size_t> order(ids.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return ids[a] < ids[b]; });
  std::vector<Column> cols(ids.size());
  for (size_t i = 0; i < order.size();) {
    size_t j = i + 1;
    while (j < order.size() && ids[order[j]] <= ids[order[j - 1]] + 1) ++j;
    const int64_t begin = chunk.offsets[static_cast<size_t>(ids[order[i]])];
    const int64_t end =
        chunk.offsets[static_cast<size_t>(ids[order[j - 1]]) + 1];
    DL2SQL_ASSIGN_OR_RETURN(std::string buf,
                            ReadChunkBytes(chunk, begin, end));
    for (size_t k = i; k < j; ++k) {
      const size_t id = static_cast<size_t>(ids[order[k]]);
      size_t pos = static_cast<size_t>(chunk.offsets[id] - begin);
      DL2SQL_ASSIGN_OR_RETURN(cols[order[k]],
                              DecodeColumnSlice(types_[id], chunk.rows, buf,
                                                &pos));
    }
    i = j;
  }
  return cols;
}

Result<std::vector<Column>> PagedTableData::Gather(
    const std::vector<int64_t>& rows, const std::vector<int>& columns) const {
  const std::vector<int> ids = ColumnIds(columns);
  std::vector<Column> out;
  out.reserve(ids.size());
  for (const int id : ids) out.emplace_back(types_[static_cast<size_t>(id)]);
  int64_t cached_chunk = -1;
  std::vector<Column> cached;
  // Each maximal run of requested rows falling in one chunk becomes one
  // Take() on the decoded chunk; the single-chunk cache also covers repeats.
  size_t i = 0;
  while (i < rows.size()) {
    const int64_t c = ChunkOfRow(rows[i]);
    if (c != cached_chunk) {
      DL2SQL_ASSIGN_OR_RETURN(cached, ReadChunk(c, ids));
      cached_chunk = c;
    }
    const ChunkRef& chunk = chunks_[static_cast<size_t>(c)];
    std::vector<int64_t> local;
    while (i < rows.size() && rows[i] >= chunk.first_row &&
           rows[i] < chunk.first_row + chunk.rows) {
      local.push_back(rows[i] - chunk.first_row);
      ++i;
    }
    for (size_t k = 0; k < out.size(); ++k) {
      out[k].AppendColumn(cached[k].Take(local));
    }
  }
  return out;
}

Result<std::vector<Column>> PagedTableData::Materialize(
    const std::vector<int>& columns) const {
  const std::vector<int> ids = ColumnIds(columns);
  std::vector<Column> out;
  out.reserve(ids.size());
  for (const int id : ids) out.emplace_back(types_[static_cast<size_t>(id)]);
  for (int64_t c = 0; c < num_chunks(); ++c) {
    DL2SQL_ASSIGN_OR_RETURN(std::vector<Column> cols, ReadChunk(c, ids));
    for (size_t k = 0; k < out.size(); ++k) {
      out[k].AppendColumn(cols[k]);
    }
  }
  return out;
}

PagedTableBuilder::PagedTableBuilder(std::shared_ptr<StorageEngine> engine,
                                     TableSchema schema)
    : engine_(std::move(engine)),
      schema_(std::move(schema)),
      staging_(schema_) {
  std::vector<DataType> types;
  types.reserve(static_cast<size_t>(schema_.num_fields()));
  for (int i = 0; i < schema_.num_fields(); ++i) {
    types.push_back(schema_.field(i).type);
  }
  data_ = std::shared_ptr<PagedTableData>(
      new PagedTableData(engine_, std::move(types)));
}

Status PagedTableBuilder::FlushChunk(const Table& t, int64_t begin,
                                     int64_t end) {
  std::string buf;
  PagedTableData::ChunkRef chunk;
  std::vector<int64_t> slice_bytes(static_cast<size_t>(t.num_columns()));
  for (int c = 0; c < t.num_columns(); ++c) {
    chunk.offsets.push_back(static_cast<int64_t>(buf.size()));
    DL2SQL_RETURN_NOT_OK(EncodeColumnSlice(t.column(c), begin, end, &buf));
    slice_bytes[static_cast<size_t>(c)] =
        SliceByteSize(t.column(c), begin, end);
  }
  chunk.offsets.push_back(static_cast<int64_t>(buf.size()));
  const size_t bb = engine_->block_file().block_bytes();
  const int64_t n_blocks = static_cast<int64_t>((buf.size() + bb - 1) / bb);
  chunk.first_row = data_->num_rows_;
  chunk.rows = end - begin;
  chunk.blocks = engine_->AllocateBlocks(n_blocks);
  for (int64_t b = 0; b < n_blocks; ++b) {
    const size_t off = static_cast<size_t>(b) * bb;
    const size_t len = std::min(bb, buf.size() - off);
    Status s = engine_->pool().Put(chunk.blocks[static_cast<size_t>(b)],
                                   buf.data() + off, len);
    if (!s.ok()) {
      engine_->FreeBlocks(chunk.blocks);
      return s;
    }
  }
  data_->chunks_.push_back(std::move(chunk));
  data_->num_rows_ += end - begin;
  for (size_t c = 0; c < slice_bytes.size(); ++c) {
    data_->logical_bytes_ += slice_bytes[c];
    data_->column_bytes_[c] += slice_bytes[c];
  }
  return Status::OK();
}

Status PagedTableBuilder::Append(const Table& t) {
  if (t.num_columns() != schema_.num_fields()) {
    return Status::InvalidArgument("paged append: column count mismatch");
  }
  if (schema_.num_fields() == 0) {
    return Status::InvalidArgument("cannot page a zero-column table");
  }
  for (int c = 0; c < t.num_columns(); ++c) {
    if (t.column(c).type() != schema_.field(c).type) {
      return Status::TypeError("paged append: column ", c, " type mismatch");
    }
  }
  const int64_t chunk_rows = engine_->options().chunk_rows;
  int64_t pos = 0;
  while (pos < t.num_rows()) {
    if (staging_.num_rows() == 0 && t.num_rows() - pos >= chunk_rows) {
      // Whole chunk available: encode straight from the source columns.
      DL2SQL_RETURN_NOT_OK(FlushChunk(t, pos, pos + chunk_rows));
      pos += chunk_rows;
      continue;
    }
    if (staging_.num_rows() == 0) {
      // Staging fills to exactly one chunk: reserving it keeps piecewise
      // appends from growing the columns past a chunk.
      for (int c = 0; c < t.num_columns(); ++c) {
        staging_.mutable_column(c).Reserve(chunk_rows);
      }
    }
    const int64_t take = std::min(chunk_rows - staging_.num_rows(),
                                  t.num_rows() - pos);
    std::vector<int64_t> idx;
    if (take < t.num_rows()) {
      idx.resize(static_cast<size_t>(take));
      std::iota(idx.begin(), idx.end(), pos);
    }
    for (int c = 0; c < t.num_columns(); ++c) {
      staging_.mutable_column(c).AppendColumn(
          idx.empty() ? t.column(c) : t.column(c).Take(idx));
    }
    pos += take;
    if (staging_.num_rows() == chunk_rows) {
      DL2SQL_RETURN_NOT_OK(FlushChunk(staging_, 0, chunk_rows));
      staging_ = Table(schema_);
    }
  }
  return Status::OK();
}

Result<std::shared_ptr<PagedTableData>> PagedTableBuilder::Finish() {
  if (staging_.num_rows() > 0) {
    DL2SQL_RETURN_NOT_OK(FlushChunk(staging_, 0, staging_.num_rows()));
    staging_ = Table(schema_);
  }
  if (data_->chunks_.empty() && data_->num_rows_ == 0 &&
      schema_.num_fields() == 0) {
    return Status::InvalidArgument("cannot page a zero-column table");
  }
  return std::move(data_);
}

}  // namespace dl2sql::db::storage
