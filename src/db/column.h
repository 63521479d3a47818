/// \file column.h
/// \brief Column: a typed, contiguous vector of values — the unit of storage
/// and of vectorized expression evaluation in lindb.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/value.h"

namespace dl2sql::db {

/// \brief A typed column with an optional validity (null) vector.
///
/// Physical encodings: Bool/Int64/Float64 use native vectors; String and Blob
/// share a string vector. An empty validity vector means "all rows valid".
///
/// Copying a Column is cheap: the payload is shared copy-on-write, so table
/// scans and projections that pass columns through do not duplicate data.
/// Mutating accessors detach (clone) a shared payload first.
class Column {
 public:
  Column() : type_(DataType::kNull), data_(std::make_shared<Payload>()) {}
  explicit Column(DataType type)
      : type_(type), data_(std::make_shared<Payload>()) {}

  static Column Ints(std::vector<int64_t> v) {
    Column c(DataType::kInt64);
    c.data_->ints = std::move(v);
    return c;
  }
  static Column Floats(std::vector<double> v) {
    Column c(DataType::kFloat64);
    c.data_->floats = std::move(v);
    return c;
  }
  static Column Bools(std::vector<uint8_t> v) {
    Column c(DataType::kBool);
    c.data_->bools = std::move(v);
    return c;
  }
  static Column Strings(std::vector<std::string> v) {
    Column c(DataType::kString);
    c.data_->strings = std::move(v);
    return c;
  }
  static Column Blobs(std::vector<std::string> v) {
    Column c(DataType::kBlob);
    c.data_->strings = std::move(v);
    return c;
  }

  DataType type() const { return type_; }

  int64_t size() const;

  /// Reserves capacity in the underlying vector (detaches if shared).
  void Reserve(int64_t n);

  /// Appends a Value; must match the column type or be NULL (which marks the
  /// row invalid and stores a default slot). Detaches if shared.
  Status Append(const Value& v);

  /// Move overload: steals string/blob payloads instead of copying. Scalar
  /// payloads fall through to the copy overload (copies are free there).
  Status Append(Value&& v);

  /// Appends row `row` of `src`, a column of the same type, without boxing
  /// it into a Value. Detaches if shared.
  void AppendFrom(const Column& src, int64_t row);

  /// Appends every row of `src`, a column of the same type, as typed vector
  /// inserts (no per-value boxing), keeping NULLs. Detaches if shared.
  void AppendColumn(const Column& src);

  /// Reads row `i` as a Value (NULL if invalid).
  Value GetValue(int64_t i) const;

  bool IsValid(int64_t i) const {
    return data_->validity.empty() ||
           data_->validity[static_cast<size_t>(i)] != 0;
  }
  bool HasNulls() const;

  /// \name Direct typed access for hot loops (no null handling; callers check).
  /// @{
  const std::vector<int64_t>& ints() const { return data_->ints; }
  const std::vector<double>& floats() const { return data_->floats; }
  const std::vector<uint8_t>& bools() const { return data_->bools; }
  const std::vector<std::string>& strings() const { return data_->strings; }
  std::vector<int64_t>& mutable_ints() {
    Detach();
    return data_->ints;
  }
  std::vector<double>& mutable_floats() {
    Detach();
    return data_->floats;
  }
  std::vector<uint8_t>& mutable_bools() {
    Detach();
    return data_->bools;
  }
  std::vector<std::string>& mutable_strings() {
    Detach();
    return data_->strings;
  }
  /// @}

  /// Raw validity flags (empty = all rows valid). For codecs and paging.
  const std::vector<uint8_t>& validity() const { return data_->validity; }

  /// Replaces the validity vector wholesale (empty = all valid). `v` must be
  /// empty or size()-long; used when reconstituting columns from storage.
  void SetValidity(std::vector<uint8_t> v) {
    Detach();
    data_->validity = std::move(v);
  }

  /// Gathers rows by index into a new column (indices must be in range).
  Column Take(const std::vector<int64_t>& indices) const;

  /// Replaces this column's rows with rows rows[0..n) of `src`, a column of
  /// the same type, reusing this column's capacity. Detaches if shared.
  void TakeFrom(const Column& src, const int64_t* rows, int64_t n);

  /// Approximate heap bytes used by the column payload.
  uint64_t ByteSize() const;

 private:
  struct Payload {
    std::vector<int64_t> ints;
    std::vector<double> floats;
    std::vector<uint8_t> bools;
    std::vector<std::string> strings;
    /// Parallel validity flags; empty means all valid.
    std::vector<uint8_t> validity;
  };

  /// Clones the payload if it is shared with other Column instances.
  void Detach() {
    if (data_.use_count() > 1) {
      data_ = std::make_shared<Payload>(*data_);
    }
  }

  void EnsureValiditySized();

  DataType type_;
  std::shared_ptr<Payload> data_;
};

}  // namespace dl2sql::db
