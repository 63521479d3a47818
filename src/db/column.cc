#include "db/column.h"

#include <algorithm>

namespace dl2sql::db {

int64_t Column::size() const {
  switch (type_) {
    case DataType::kBool:
      return static_cast<int64_t>(data_->bools.size());
    case DataType::kInt64:
      return static_cast<int64_t>(data_->ints.size());
    case DataType::kFloat64:
      return static_cast<int64_t>(data_->floats.size());
    case DataType::kString:
    case DataType::kBlob:
      return static_cast<int64_t>(data_->strings.size());
    case DataType::kNull:
      return static_cast<int64_t>(data_->validity.size());
  }
  return 0;
}

void Column::Reserve(int64_t n) {
  Detach();
  const size_t sn = static_cast<size_t>(n);
  switch (type_) {
    case DataType::kBool:
      data_->bools.reserve(sn);
      break;
    case DataType::kInt64:
      data_->ints.reserve(sn);
      break;
    case DataType::kFloat64:
      data_->floats.reserve(sn);
      break;
    case DataType::kString:
    case DataType::kBlob:
      data_->strings.reserve(sn);
      break;
    case DataType::kNull:
      break;
  }
}

void Column::EnsureValiditySized() {
  if (data_->validity.empty()) {
    data_->validity.assign(static_cast<size_t>(size()), 1);
  }
}

Status Column::Append(const Value& v) {
  Detach();
  if (v.is_null()) {
    EnsureValiditySized();
    switch (type_) {
      case DataType::kBool:
        data_->bools.push_back(0);
        break;
      case DataType::kInt64:
        data_->ints.push_back(0);
        break;
      case DataType::kFloat64:
        data_->floats.push_back(0.0);
        break;
      case DataType::kString:
      case DataType::kBlob:
        data_->strings.emplace_back();
        break;
      case DataType::kNull:
        break;
    }
    data_->validity.push_back(0);
    return Status::OK();
  }

  switch (type_) {
    case DataType::kBool:
      if (v.type() != DataType::kBool) {
        return Status::TypeError("append ", DataTypeToString(v.type()),
                                 " to bool column");
      }
      data_->bools.push_back(v.bool_value() ? 1 : 0);
      break;
    case DataType::kInt64: {
      if (v.type() != DataType::kInt64) {
        return Status::TypeError("append ", DataTypeToString(v.type()),
                                 " to int column");
      }
      data_->ints.push_back(v.int_value());
      break;
    }
    case DataType::kFloat64: {
      // Numeric coercion: ints into float columns (common for literals).
      DL2SQL_ASSIGN_OR_RETURN(double d, v.AsDouble());
      data_->floats.push_back(d);
      break;
    }
    case DataType::kString:
      if (v.type() != DataType::kString) {
        return Status::TypeError("append ", DataTypeToString(v.type()),
                                 " to string column");
      }
      data_->strings.push_back(v.string_value());
      break;
    case DataType::kBlob:
      if (v.type() != DataType::kBlob && v.type() != DataType::kString) {
        return Status::TypeError("append ", DataTypeToString(v.type()),
                                 " to blob column");
      }
      data_->strings.push_back(v.string_value());
      break;
    case DataType::kNull:
      return Status::TypeError("append to null-typed column");
  }
  if (!data_->validity.empty()) data_->validity.push_back(1);
  return Status::OK();
}

Status Column::Append(Value&& v) {
  if ((type_ == DataType::kString || type_ == DataType::kBlob) &&
      !v.is_null()) {
    if (v.type() != DataType::kString &&
        !(type_ == DataType::kBlob && v.type() == DataType::kBlob)) {
      return Status::TypeError("append ", DataTypeToString(v.type()), " to ",
                               DataTypeToString(type_), " column");
    }
    Detach();
    data_->strings.push_back(v.TakeString());
    if (!data_->validity.empty()) data_->validity.push_back(1);
    return Status::OK();
  }
  return Append(static_cast<const Value&>(v));
}

void Column::AppendFrom(const Column& src, int64_t row) {
  Detach();
  const size_t sr = static_cast<size_t>(row);
  const bool valid = src.IsValid(row);
  if (!valid) EnsureValiditySized();
  switch (type_) {
    case DataType::kBool:
      data_->bools.push_back(src.data_->bools[sr]);
      break;
    case DataType::kInt64:
      data_->ints.push_back(src.data_->ints[sr]);
      break;
    case DataType::kFloat64:
      data_->floats.push_back(src.data_->floats[sr]);
      break;
    case DataType::kString:
    case DataType::kBlob:
      data_->strings.push_back(src.data_->strings[sr]);
      break;
    case DataType::kNull:
      break;
  }
  if (!data_->validity.empty()) data_->validity.push_back(valid ? 1 : 0);
}

Value Column::GetValue(int64_t i) const {
  if (!IsValid(i)) return Value::Null();
  const size_t si = static_cast<size_t>(i);
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(data_->bools[si] != 0);
    case DataType::kInt64:
      return Value::Int(data_->ints[si]);
    case DataType::kFloat64:
      return Value::Float(data_->floats[si]);
    case DataType::kString:
      return Value::String(data_->strings[si]);
    case DataType::kBlob:
      return Value::Blob(data_->strings[si]);
    case DataType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

bool Column::HasNulls() const {
  return std::any_of(data_->validity.begin(), data_->validity.end(),
                     [](uint8_t v) { return v == 0; });
}

namespace {

/// dst = src gathered at rows[0..n).
template <typename T>
void Gather(const std::vector<T>& src, const int64_t* rows, int64_t n,
            std::vector<T>* dst) {
  dst->resize(static_cast<size_t>(n));
  T* out = dst->data();
  for (int64_t i = 0; i < n; ++i) out[i] = src[static_cast<size_t>(rows[i])];
}

}  // namespace

Column Column::Take(const std::vector<int64_t>& indices) const {
  Column out(type_);
  out.TakeFrom(*this, indices.data(), static_cast<int64_t>(indices.size()));
  return out;
}

void Column::TakeFrom(const Column& src, const int64_t* rows, int64_t n) {
  // One type dispatch per column, then a tight gather loop.
  Detach();
  switch (type_) {
    case DataType::kBool:
      Gather(src.data_->bools, rows, n, &data_->bools);
      break;
    case DataType::kInt64:
      Gather(src.data_->ints, rows, n, &data_->ints);
      break;
    case DataType::kFloat64:
      Gather(src.data_->floats, rows, n, &data_->floats);
      break;
    case DataType::kString:
    case DataType::kBlob:
      Gather(src.data_->strings, rows, n, &data_->strings);
      break;
    case DataType::kNull:
      break;
  }
  if (src.data_->validity.empty()) {
    data_->validity.clear();
  } else {
    Gather(src.data_->validity, rows, n, &data_->validity);
  }
}

uint64_t Column::ByteSize() const {
  uint64_t bytes = data_->validity.size();
  switch (type_) {
    case DataType::kBool:
      bytes += data_->bools.size();
      break;
    case DataType::kInt64:
      bytes += data_->ints.size() * sizeof(int64_t);
      break;
    case DataType::kFloat64:
      bytes += data_->floats.size() * sizeof(double);
      break;
    case DataType::kString:
    case DataType::kBlob:
      for (const auto& s : data_->strings) bytes += s.size() + sizeof(uint32_t);
      break;
    case DataType::kNull:
      break;
  }
  return bytes;
}

}  // namespace dl2sql::db
