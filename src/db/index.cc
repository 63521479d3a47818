#include "db/index.h"

#include "db/exec/vector_kernels.h"

namespace dl2sql::db {

Result<std::shared_ptr<HashIndex>> HashIndex::Build(const Table& table,
                                                    int column_index) {
  if (column_index < 0 || column_index >= table.num_columns()) {
    return Status::InvalidArgument("index column ", column_index,
                                   " out of range");
  }
  const Column& col = table.column(column_index);
  if (col.type() != DataType::kInt64) {
    return Status::InvalidArgument(
        "hash indexes support INT64 columns, got ",
        DataTypeToString(col.type()), " for column ",
        table.schema().field(column_index).name);
  }
  const std::vector<const Column*> key = {&col};
  std::vector<uint64_t> hashes(static_cast<size_t>(col.size()));
  std::vector<uint8_t> nulls(static_cast<size_t>(col.size()));
  vec::HashKeyRange(key, 0, col.size(), hashes.data());
  vec::KeyNullRange(key, 0, col.size(), nulls.data());
  auto index = std::shared_ptr<HashIndex>(new HashIndex());
  index->column_index_ = column_index;
  index->indexed_rows_ = col.size();
  index->table_ = KeyHashTable::ForJoin({col}, hashes.data(), nulls.data());
  return index;
}

}  // namespace dl2sql::db
