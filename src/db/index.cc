#include "db/index.h"

#include "common/mem_tracker.h"
#include "db/eval.h"

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
  // The join's own build step, serial and uncharged: the index outlives
  // any one query.
  EvalContext ctx;
  ScopedMemCharge uncharged(nullptr);
  auto index = std::shared_ptr<HashIndex>(new HashIndex());
  index->column_index_ = column_index;
  index->indexed_rows_ = col.size();
  DL2SQL_ASSIGN_OR_RETURN(index->table_,
                          BuildJoinTable({col}, &ctx, &uncharged));
  return index;
}

}  // namespace dl2sql::db
