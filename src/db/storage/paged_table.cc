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

Result<std::string> PagedTableData::ReadChunkBytes(const ChunkRef& chunk) const {
  std::string buf;
  buf.reserve(static_cast<size_t>(chunk.encoded_bytes));
  int64_t remaining = chunk.encoded_bytes;
  for (const int64_t block : chunk.blocks) {
    DL2SQL_ASSIGN_OR_RETURN(PinnedBlock pin, engine_->pool().Pin(block));
    const size_t take = static_cast<size_t>(std::min<int64_t>(
        remaining, static_cast<int64_t>(pin.size())));
    buf.append(pin.data(), take);
    remaining -= static_cast<int64_t>(take);
  }
  if (remaining != 0) {
    return Status::InternalError("chunk byte count mismatch: ", remaining,
                                 " bytes unread");
  }
  return buf;
}

Result<std::vector<Column>> PagedTableData::ReadChunk(int64_t c) const {
  const ChunkRef& chunk = chunks_[static_cast<size_t>(c)];
  DL2SQL_ASSIGN_OR_RETURN(std::string buf, ReadChunkBytes(chunk));
  std::vector<Column> cols;
  cols.reserve(types_.size());
  size_t pos = 0;
  for (const DataType type : types_) {
    DL2SQL_ASSIGN_OR_RETURN(Column col,
                            DecodeColumnSlice(type, chunk.rows, buf, &pos));
    cols.push_back(std::move(col));
  }
  return cols;
}

Result<std::vector<Column>> PagedTableData::Gather(
    const std::vector<int64_t>& rows) const {
  std::vector<Column> out;
  out.reserve(types_.size());
  for (const DataType type : types_) out.emplace_back(type);
  int64_t cached_chunk = -1;
  std::vector<Column> cached;
  // Each maximal run of requested rows falling in one chunk becomes one
  // Take() on the decoded chunk; the single-chunk cache also covers repeats.
  size_t i = 0;
  while (i < rows.size()) {
    const int64_t c = ChunkOfRow(rows[i]);
    if (c != cached_chunk) {
      DL2SQL_ASSIGN_OR_RETURN(cached, ReadChunk(c));
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

Result<std::vector<Column>> PagedTableData::Materialize() const {
  std::vector<Column> out;
  out.reserve(types_.size());
  for (const DataType type : types_) out.emplace_back(type);
  for (int64_t c = 0; c < num_chunks(); ++c) {
    DL2SQL_ASSIGN_OR_RETURN(std::vector<Column> cols, ReadChunk(c));
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
  int64_t slice_bytes = 0;
  for (int c = 0; c < t.num_columns(); ++c) {
    DL2SQL_RETURN_NOT_OK(EncodeColumnSlice(t.column(c), begin, end, &buf));
    slice_bytes += SliceByteSize(t.column(c), begin, end);
  }
  const size_t bb = engine_->block_file().block_bytes();
  const int64_t n_blocks = static_cast<int64_t>((buf.size() + bb - 1) / bb);
  PagedTableData::ChunkRef chunk;
  chunk.first_row = data_->num_rows_;
  chunk.rows = end - begin;
  chunk.encoded_bytes = static_cast<int64_t>(buf.size());
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
  data_->logical_bytes_ += slice_bytes;
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
