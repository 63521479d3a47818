#include "db/table.h"

#include <sstream>

#include "db/storage/paged_table.h"

namespace dl2sql::db {

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  columns_.reserve(static_cast<size_t>(schema_.num_fields()));
  for (int i = 0; i < schema_.num_fields(); ++i) {
    columns_.emplace_back(schema_.field(i).type);
  }
}

Result<Table> Table::FromColumns(TableSchema schema,
                                 std::vector<Column> columns) {
  if (static_cast<int>(columns.size()) != schema.num_fields()) {
    return Status::InvalidArgument("FromColumns: ", columns.size(),
                                   " columns vs ", schema.num_fields(),
                                   " fields");
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].type() != schema.field(static_cast<int>(i)).type) {
      return Status::TypeError(
          "FromColumns: column ", i, " type ",
          DataTypeToString(columns[i].type()), " vs field type ",
          DataTypeToString(schema.field(static_cast<int>(i)).type));
    }
    if (i > 0 && columns[i].size() != columns[0].size()) {
      return Status::InvalidArgument("FromColumns: ragged column sizes");
    }
  }
  Table t;
  t.schema_ = std::move(schema);
  t.columns_ = std::move(columns);
  return t;
}

Table Table::FromPaged(TableSchema schema,
                       std::shared_ptr<storage::PagedTableData> paged,
                       std::vector<int> columns) {
  // Every backing column in order is kept as the canonical empty list.
  bool all = static_cast<int>(columns.size()) == paged->num_columns();
  for (size_t i = 0; all && i < columns.size(); ++i) {
    all = columns[i] == static_cast<int>(i);
  }
  Table t;
  t.schema_ = std::move(schema);
  t.paged_ = std::move(paged);
  if (!all) t.paged_columns_ = std::move(columns);
  return t;
}

Result<Table> Table::SelectColumns(TableSchema schema,
                                   const std::vector<int>& ids) const {
  if (static_cast<int>(ids.size()) != schema.num_fields()) {
    return Status::InvalidArgument("SelectColumns: ", ids.size(),
                                   " columns vs ", schema.num_fields(),
                                   " fields");
  }
  for (const int id : ids) {
    if (id < 0 || id >= num_columns()) {
      return Status::InvalidArgument("SelectColumns: column ", id, " of ",
                                     num_columns());
    }
  }
  if (paged_ != nullptr) {
    std::vector<int> backing;
    backing.reserve(ids.size());
    for (const int id : ids) {
      backing.push_back(paged_columns_.empty()
                            ? id
                            : paged_columns_[static_cast<size_t>(id)]);
    }
    return FromPaged(std::move(schema), paged_, std::move(backing));
  }
  std::vector<Column> cols;
  cols.reserve(ids.size());
  for (const int id : ids) cols.push_back(columns_[static_cast<size_t>(id)]);
  return FromColumns(std::move(schema), std::move(cols));
}

int64_t Table::PagedRows() const { return paged_->num_rows(); }

Status Table::EnsureResident() {
  if (paged_ == nullptr) return Status::OK();
  DL2SQL_ASSIGN_OR_RETURN(std::vector<Column> cols,
                          paged_->Materialize(paged_columns_));
  columns_ = std::move(cols);
  paged_.reset();
  paged_columns_.clear();
  return Status::OK();
}

Result<Table> Table::Materialize() const {
  if (paged_ == nullptr) return *this;
  DL2SQL_ASSIGN_OR_RETURN(std::vector<Column> cols,
                          paged_->Materialize(paged_columns_));
  return FromColumns(schema_, std::move(cols));
}

Status Table::PageOut(
    const std::shared_ptr<storage::StorageEngine>& engine) {
  if (paged_ != nullptr) return Status::OK();
  storage::PagedTableBuilder builder(engine, schema_);
  DL2SQL_RETURN_NOT_OK(builder.Append(*this));
  DL2SQL_ASSIGN_OR_RETURN(paged_, builder.Finish());
  columns_.clear();
  return Status::OK();
}

Result<const Column*> Table::ColumnByName(const std::string& name) const {
  DL2SQL_CHECK(paged_ == nullptr) << "ColumnByName on a paged table";
  DL2SQL_ASSIGN_OR_RETURN(int idx, schema_.Find(name));
  return &columns_[static_cast<size_t>(idx)];
}

Status Table::AppendRow(const std::vector<Value>& row) {
  DL2SQL_RETURN_NOT_OK(EnsureResident());
  if (static_cast<int>(row.size()) != num_columns()) {
    return Status::InvalidArgument("AppendRow: ", row.size(), " values vs ",
                                   num_columns(), " columns");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    Status s = columns_[i].Append(row[i]);
    if (!s.ok()) {
      return s.WithContext("column " + schema_.field(static_cast<int>(i)).name);
    }
  }
  return Status::OK();
}

std::vector<Value> Table::GetRow(int64_t i) const {
  if (paged_ != nullptr) {
    auto cols = paged_->Gather({i}, paged_columns_);
    DL2SQL_CHECK(cols.ok()) << "paged row read failed: "
                            << cols.status().ToString();
    std::vector<Value> row;
    row.reserve(cols->size());
    for (const auto& c : *cols) row.push_back(c.GetValue(0));
    return row;
  }
  std::vector<Value> row;
  row.reserve(columns_.size());
  for (const auto& c : columns_) row.push_back(c.GetValue(i));
  return row;
}

Status Table::AppendTable(const Table& other) {
  DL2SQL_RETURN_NOT_OK(EnsureResident());
  if (other.num_columns() != num_columns()) {
    return Status::InvalidArgument("AppendTable: column count mismatch");
  }
  if (other.is_paged()) {
    DL2SQL_ASSIGN_OR_RETURN(Table resident, other.Materialize());
    return AppendTable(resident);
  }
  for (int i = 0; i < num_columns(); ++i) {
    if (other.column(i).type() != column(i).type()) {
      return Status::TypeError("AppendTable: column ", i, " type mismatch");
    }
  }
  for (int i = 0; i < num_columns(); ++i) {
    columns_[static_cast<size_t>(i)].AppendColumn(other.column(i));
  }
  return Status::OK();
}

Table Table::TakeRows(const std::vector<int64_t>& indices) const {
  if (paged_ != nullptr) {
    auto cols = paged_->Gather(indices, paged_columns_);
    DL2SQL_CHECK(cols.ok()) << "paged gather failed: "
                            << cols.status().ToString();
    auto t = FromColumns(schema_, std::move(*cols));
    DL2SQL_CHECK(t.ok()) << t.status().ToString();
    return std::move(*t);
  }
  Table out;
  out.schema_ = schema_;
  out.columns_.reserve(columns_.size());
  for (const auto& c : columns_) out.columns_.push_back(c.Take(indices));
  if (columns_.empty()) {
    out.zero_column_rows_ = static_cast<int64_t>(indices.size());
  }
  return out;
}

Status Table::RenameFields(const std::vector<std::string>& names) {
  if (static_cast<int>(names.size()) != schema_.num_fields()) {
    return Status::InvalidArgument("RenameFields: count mismatch");
  }
  TableSchema renamed;
  for (int i = 0; i < schema_.num_fields(); ++i) {
    renamed.AddField({names[static_cast<size_t>(i)], schema_.field(i).type});
  }
  schema_ = std::move(renamed);
  return Status::OK();
}

uint64_t Table::ByteSize() const {
  if (paged_ != nullptr) {
    return static_cast<uint64_t>(paged_->logical_bytes(paged_columns_));
  }
  uint64_t bytes = 0;
  for (const auto& c : columns_) bytes += c.ByteSize();
  return bytes;
}

std::string Table::ToString(int64_t max_rows) const {
  std::ostringstream oss;
  for (int i = 0; i < schema_.num_fields(); ++i) {
    if (i > 0) oss << " | ";
    oss << schema_.field(i).name;
  }
  oss << "\n";
  const int64_t n = std::min<int64_t>(num_rows(), max_rows);
  if (paged_ != nullptr) {
    for (int64_t r = 0; r < n; ++r) {
      const std::vector<Value> row = GetRow(r);
      for (size_t c = 0; c < row.size(); ++c) {
        if (c > 0) oss << " | ";
        oss << row[c].ToString();
      }
      oss << "\n";
    }
  } else {
    for (int64_t r = 0; r < n; ++r) {
      for (int c = 0; c < num_columns(); ++c) {
        if (c > 0) oss << " | ";
        oss << columns_[static_cast<size_t>(c)].GetValue(r).ToString();
      }
      oss << "\n";
    }
  }
  if (num_rows() > n) {
    oss << "... (" << num_rows() << " rows total)\n";
  }
  return oss.str();
}

}  // namespace dl2sql::db
